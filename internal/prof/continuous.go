package prof

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"sort"
	"strings"
	"sync"
)

// ContinuousConfig sizes a continuous profiler.
type ContinuousConfig struct {
	// Dir is the on-disk ring directory (created if missing).
	Dir string
	// MaxPerKind bounds the files kept per profile kind (cpu, heap);
	// the oldest beyond the bound are deleted. <= 0 keeps 8.
	MaxPerKind int
	// HeapGrowth is the HeapAlloc growth in bytes since the last heap
	// snapshot that makes MaybeHeapSnapshot write a new one; 0 snapshots
	// on every call (pure interval mode).
	HeapGrowth uint64
}

// Continuous writes rolling CPU-profile windows and heap snapshots into
// a bounded on-disk ring. It owns cadence *state* only — callers (an
// operational main's ticker loop, a test) drive when windows start and
// stop, so the package stays free of wall-clock waits.
//
// File names are sequence-numbered (cpu-000003.pprof, heap-000007.pprof),
// so the ring orders lexically and needs no timestamps.
type Continuous struct {
	mu        sync.Mutex
	cfg       ContinuousConfig
	seq       uint64   // guarded by mu
	cpuFile   *os.File // guarded by mu; non-nil while a CPU window is open
	cpuName   string   // guarded by mu
	lastHeap  uint64   // guarded by mu; HeapAlloc at the last heap snapshot
	heapTaken bool     // guarded by mu
}

// NewContinuous returns a profiler writing into cfg.Dir, creating the
// directory if needed.
func NewContinuous(cfg ContinuousConfig) (*Continuous, error) {
	if cfg.MaxPerKind <= 0 {
		cfg.MaxPerKind = 8
	}
	if err := os.MkdirAll(cfg.Dir, 0o755); err != nil {
		return nil, fmt.Errorf("prof: profile ring: %w", err)
	}
	return &Continuous{cfg: cfg}, nil
}

// Dir returns the ring directory.
func (c *Continuous) Dir() string { return c.cfg.Dir }

// StartCPU opens the next CPU-profile window. Only one window may be
// open at a time (the runtime allows one CPU profile per process); a
// second StartCPU before StopCPU is an error.
func (c *Continuous) StartCPU() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.cpuFile != nil {
		return fmt.Errorf("prof: CPU window already open (%s)", c.cpuName)
	}
	c.seq++
	name := fmt.Sprintf("cpu-%06d.pprof", c.seq)
	f, err := os.Create(filepath.Join(c.cfg.Dir, name))
	if err != nil {
		return fmt.Errorf("prof: CPU window: %w", err)
	}
	if err := pprof.StartCPUProfile(f); err != nil {
		_ = f.Close()
		_ = os.Remove(f.Name())
		return fmt.Errorf("prof: CPU window: %w", err)
	}
	c.cpuFile, c.cpuName = f, name
	return nil
}

// StopCPU closes the open CPU-profile window, prunes the ring, and
// returns the finished file name. Without an open window it is an
// error.
func (c *Continuous) StopCPU() (string, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.cpuFile == nil {
		return "", fmt.Errorf("prof: no CPU window open")
	}
	pprof.StopCPUProfile()
	err := c.cpuFile.Close()
	name := c.cpuName
	c.cpuFile, c.cpuName = nil, ""
	if err != nil {
		return "", fmt.Errorf("prof: closing CPU window: %w", err)
	}
	c.prune("cpu-")
	return name, nil
}

// HeapSnapshot writes a heap profile into the ring unconditionally and
// returns its file name.
func (c *Continuous) HeapSnapshot() (string, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.heapLocked()
}

// MaybeHeapSnapshot writes a heap profile when HeapAlloc has grown by at
// least the configured HeapGrowth since the last snapshot (or always,
// with HeapGrowth 0). It reports whether a snapshot was written.
func (c *Continuous) MaybeHeapSnapshot() (string, bool, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.cfg.HeapGrowth > 0 && c.heapTaken {
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		grown := ms.HeapAlloc > c.lastHeap && ms.HeapAlloc-c.lastHeap >= c.cfg.HeapGrowth
		if !grown {
			return "", false, nil
		}
	}
	name, err := c.heapLocked()
	return name, err == nil, err
}

// heapLocked writes one heap snapshot; the caller holds mu.
func (c *Continuous) heapLocked() (string, error) {
	c.seq++
	name := fmt.Sprintf("heap-%06d.pprof", c.seq)
	f, err := os.Create(filepath.Join(c.cfg.Dir, name))
	if err != nil {
		return "", fmt.Errorf("prof: heap snapshot: %w", err)
	}
	// GC first so the "inuse" sample types reflect live objects, the
	// same convention net/http/pprof uses for /debug/pprof/heap.
	runtime.GC()
	if err := pprof.Lookup("heap").WriteTo(f, 0); err != nil {
		_ = f.Close()
		_ = os.Remove(f.Name())
		return "", fmt.Errorf("prof: heap snapshot: %w", err)
	}
	if err := f.Close(); err != nil {
		return "", fmt.Errorf("prof: heap snapshot: %w", err)
	}
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	c.lastHeap, c.heapTaken = ms.HeapAlloc, true
	c.prune("heap-")
	return name, nil
}

// prune deletes the oldest files of one kind beyond MaxPerKind; the
// caller holds mu. Removal errors are ignored — a stale file only
// costs disk, and the next prune retries.
func (c *Continuous) prune(prefix string) {
	names := c.ringNames(prefix)
	for len(names) > c.cfg.MaxPerKind {
		_ = os.Remove(filepath.Join(c.cfg.Dir, names[0]))
		names = names[1:]
	}
}

// ringNames lists the ring's files for one kind prefix, sorted oldest
// first (sequence numbers order lexically).
func (c *Continuous) ringNames(prefix string) []string {
	entries, err := os.ReadDir(c.cfg.Dir)
	if err != nil {
		return nil
	}
	var names []string
	for _, e := range entries {
		n := e.Name()
		if !e.IsDir() && strings.HasPrefix(n, prefix) && strings.HasSuffix(n, ".pprof") {
			names = append(names, n)
		}
	}
	sort.Strings(names)
	return names
}

// ProfileInfo describes one ring entry for listings.
type ProfileInfo struct {
	// Name is the ring file name (cpu-000003.pprof).
	Name string `json:"name"`
	// Kind is "cpu" or "heap".
	Kind string `json:"kind"`
	// SizeBytes is the file size.
	SizeBytes int64 `json:"size_bytes"`
}

// List returns the ring's finished profiles sorted by name (cpu before
// heap, oldest first within a kind). An open CPU window's growing file
// is excluded until StopCPU finishes it.
func (c *Continuous) List() []ProfileInfo {
	c.mu.Lock()
	open := c.cpuName
	c.mu.Unlock()
	var out []ProfileInfo
	for _, prefix := range []string{"cpu-", "heap-"} {
		for _, n := range c.ringNames(prefix) {
			if n == open {
				continue
			}
			fi, err := os.Stat(filepath.Join(c.cfg.Dir, n))
			if err != nil {
				continue
			}
			out = append(out, ProfileInfo{Name: n, Kind: strings.TrimSuffix(prefix, "-"), SizeBytes: fi.Size()})
		}
	}
	return out
}

// Handler serves the ring over HTTP: GET <prefix> lists profiles (text,
// or JSON with ?format=json) and GET <prefix>/<name> downloads one.
// Mount it at /profiles and /profiles/ on a mux. Only names the ring
// itself listed are served, so the handler cannot traverse outside the
// ring directory.
func (c *Continuous) Handler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		rest := strings.TrimPrefix(r.URL.Path, "/profiles")
		rest = strings.TrimPrefix(rest, "/")
		if rest == "" {
			c.serveList(w, r)
			return
		}
		c.serveFile(w, r, rest)
	})
}

// serveList renders the ring listing.
func (c *Continuous) serveList(w http.ResponseWriter, r *http.Request) {
	infos := c.List()
	if r.URL.Query().Get("format") == "json" {
		w.Header().Set("Content-Type", "application/json")
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		_ = enc.Encode(infos)
		return
	}
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	fmt.Fprintf(w, "%d profiles in ring (download /profiles/<name>; read with go tool pprof)\n", len(infos))
	for _, p := range infos {
		fmt.Fprintf(w, "%-6s %10d  %s\n", p.Kind, p.SizeBytes, p.Name)
	}
}

// serveFile downloads one ring entry by name.
func (c *Continuous) serveFile(w http.ResponseWriter, r *http.Request, name string) {
	for _, p := range c.List() {
		if p.Name != name {
			continue
		}
		f, err := os.Open(filepath.Join(c.cfg.Dir, name))
		if err != nil {
			http.Error(w, "profile vanished from ring", http.StatusNotFound)
			return
		}
		w.Header().Set("Content-Type", "application/octet-stream")
		w.Header().Set("Content-Disposition", `attachment; filename="`+name+`"`)
		_, _ = io.Copy(w, f)
		// A read-only Close cannot lose data; the copy error (if any)
		// already surfaced to the client as a truncated body.
		_ = f.Close()
		return
	}
	http.Error(w, "no such profile in ring", http.StatusNotFound)
}

package prof

import (
	"bytes"
	"compress/gzip"
	"encoding/json"
	"io"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func newRing(t *testing.T, max int, growth uint64) *Continuous {
	t.Helper()
	c, err := NewContinuous(ContinuousConfig{
		Dir: filepath.Join(t.TempDir(), "profiles"), MaxPerKind: max, HeapGrowth: growth,
	})
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// TestHeapRingBounded writes more heap snapshots than the ring holds
// and checks the oldest are pruned.
func TestHeapRingBounded(t *testing.T) {
	c := newRing(t, 3, 0)
	var names []string
	for i := 0; i < 5; i++ {
		n, err := c.HeapSnapshot()
		if err != nil {
			t.Fatal(err)
		}
		names = append(names, n)
	}
	list := c.List()
	if len(list) != 3 {
		t.Fatalf("ring holds %d profiles, want 3: %+v", len(list), list)
	}
	// The survivors are the three newest, in order.
	for i, p := range list {
		if want := names[2+i]; p.Name != want {
			t.Errorf("ring[%d] = %s, want %s", i, p.Name, want)
		}
		if p.Kind != "heap" || p.SizeBytes <= 0 {
			t.Errorf("ring[%d] = %+v, want non-empty heap profile", i, p)
		}
	}
	if _, err := os.Stat(filepath.Join(c.Dir(), names[0])); !os.IsNotExist(err) {
		t.Errorf("oldest snapshot %s not pruned (err=%v)", names[0], err)
	}
}

// TestHeapThreshold pins MaybeHeapSnapshot's growth gate: a huge
// threshold suppresses back-to-back snapshots, and the first call
// always writes.
func TestHeapThreshold(t *testing.T) {
	c := newRing(t, 8, 1<<40) // 1 TB growth will not happen mid-test
	if _, wrote, err := c.MaybeHeapSnapshot(); err != nil || !wrote {
		t.Fatalf("first MaybeHeapSnapshot: wrote=%v err=%v, want first write", wrote, err)
	}
	if _, wrote, err := c.MaybeHeapSnapshot(); err != nil || wrote {
		t.Fatalf("second MaybeHeapSnapshot: wrote=%v err=%v, want suppressed", wrote, err)
	}
	c0 := newRing(t, 8, 0)
	for i := 0; i < 2; i++ {
		if _, wrote, err := c0.MaybeHeapSnapshot(); err != nil || !wrote {
			t.Fatalf("interval-mode MaybeHeapSnapshot #%d: wrote=%v err=%v", i, wrote, err)
		}
	}
}

// TestCPUWindow opens and closes a CPU window, checks the file lands in
// the ring as a gzipped CPU profile, and pins the one-window-at-a-time
// rule.
func TestCPUWindow(t *testing.T) {
	c := newRing(t, 2, 0)
	if err := c.StartCPU(); err != nil {
		t.Fatal(err)
	}
	if err := c.StartCPU(); err == nil {
		t.Error("second StartCPU succeeded with a window open")
	}
	// The open window is hidden from listings until it is finished.
	if got := c.List(); len(got) != 0 {
		t.Errorf("open window leaked into listing: %+v", got)
	}
	busy(2 << 20)
	name, err := c.StopCPU()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.StopCPU(); err == nil {
		t.Error("StopCPU succeeded with no window open")
	}
	f, err := os.Open(filepath.Join(c.Dir(), name))
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	zr, err := gzip.NewReader(f)
	if err != nil {
		t.Fatalf("CPU window is not a gzipped profile: %v", err)
	}
	body, err := io.ReadAll(zr)
	if err != nil {
		t.Fatalf("CPU window body: %v", err)
	}
	// A profile's string table holds its sample-type names as plain
	// strings: a CPU profile has samples/cpu, a heap profile inuse_*.
	for _, s := range []string{"samples", "cpu", "nanoseconds"} {
		if !bytes.Contains(body, []byte(s)) {
			t.Errorf("CPU window has no %q sample-type string; not a CPU profile", s)
		}
	}
	if bytes.Contains(body, []byte("inuse_space")) {
		t.Error("CPU window holds a heap profile's inuse_space sample type")
	}
}

// busy burns CPU so a profile window has something to sample.
func busy(n int) uint64 {
	var acc uint64
	for i := 0; i < n; i++ {
		acc = acc*0x9e3779b97f4a7c15 + uint64(i)
	}
	return acc
}

// TestProfilesHandler drives the HTTP surface: listing (text and JSON),
// download, and the traversal guard.
func TestProfilesHandler(t *testing.T) {
	c := newRing(t, 4, 0)
	name, err := c.HeapSnapshot()
	if err != nil {
		t.Fatal(err)
	}
	h := c.Handler()

	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("GET", "/profiles", nil))
	if rec.Code != 200 || !strings.Contains(rec.Body.String(), name) {
		t.Errorf("listing: code=%d body=%q", rec.Code, rec.Body.String())
	}

	rec = httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("GET", "/profiles?format=json", nil))
	var infos []ProfileInfo
	if err := json.Unmarshal(rec.Body.Bytes(), &infos); err != nil {
		t.Fatalf("JSON listing: %v (%s)", err, rec.Body.String())
	}
	if len(infos) != 1 || infos[0].Name != name || infos[0].Kind != "heap" {
		t.Errorf("JSON listing = %+v", infos)
	}

	rec = httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("GET", "/profiles/"+name, nil))
	if rec.Code != 200 {
		t.Fatalf("download %s: code=%d", name, rec.Code)
	}
	want, err := os.ReadFile(filepath.Join(c.Dir(), name))
	if err != nil {
		t.Fatal(err)
	}
	got, err := io.ReadAll(rec.Body)
	if err != nil || string(got) != string(want) {
		t.Errorf("download bytes differ from ring file (err=%v, %d vs %d bytes)", err, len(got), len(want))
	}

	for _, path := range []string{"/profiles/../prof.go", "/profiles/nope.pprof", "/profiles/" + name + "x"} {
		rec = httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest("GET", path, nil))
		if rec.Code != 404 {
			t.Errorf("GET %s: code=%d, want 404", path, rec.Code)
		}
	}
}

// TestNewContinuousBadDir pins the error path: a ring rooted at an
// existing file cannot be created.
func TestNewContinuousBadDir(t *testing.T) {
	f := filepath.Join(t.TempDir(), "plainfile")
	if err := os.WriteFile(f, []byte("x"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := NewContinuous(ContinuousConfig{Dir: f}); err == nil {
		t.Error("NewContinuous accepted a file as its ring directory")
	}
}

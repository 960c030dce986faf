// Package golden holds what tests compare their outputs with: one
// manifest of cross-commit digests, testdata/digests.txt at the module
// root, and the golden files a few packages keep beside their tests.
//
// The manifest has one "key value" line per pinned digest, sorted by key.
// Each value was recorded on an earlier commit and may only change in a
// commit that says which output it changes. BS_UPDATE_GOLDEN=1 makes
// every check record what it got instead of comparing; Write is the one
// code path that writes either kind of golden.
package golden

import (
	"bytes"
	"errors"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"syscall"
	"testing"
)

func updating() bool { return os.Getenv("BS_UPDATE_GOLDEN") == "1" }

// Write replaces the file at path (created if missing) with edit applied
// to its contents, under an exclusive lock on the file, so that the test
// binaries `go test ./...` runs in parallel each keep the lines the
// others wrote. It writes nothing when edit returns the contents as they
// were.
func Write(path string, edit func(old []byte) []byte) error {
	f, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE, 0o644)
	if err != nil {
		return err
	}
	defer f.Close() // the explicit Close below reports; this one only unlocks on error paths
	if err := syscall.Flock(int(f.Fd()), syscall.LOCK_EX); err != nil {
		return err
	}
	old, err := io.ReadAll(f)
	if err != nil {
		return err
	}
	buf := edit(old)
	if bytes.Equal(buf, old) {
		return nil
	}
	if err := f.Truncate(0); err != nil {
		return err
	}
	if _, err := f.WriteAt(buf, 0); err != nil {
		return err
	}
	return f.Close()
}

// Record writes content to the golden file at path under
// BS_UPDATE_GOLDEN=1 and does nothing otherwise; the caller then reads
// the file back and compares as usual.
func Record(t testing.TB, path string, content []byte) {
	t.Helper()
	if !updating() {
		return
	}
	if err := Write(path, func([]byte) []byte { return content }); err != nil {
		t.Fatalf("write golden: %v", err)
	}
	t.Logf("updated %s", path)
}

// Digest compares got with the manifest's value for key, as text: a
// caller formats its digest the way the pin was recorded. Under
// BS_UPDATE_GOLDEN=1 it records got instead.
func Digest(t testing.TB, key, got string) {
	t.Helper()
	path, err := manifestPath()
	if err != nil {
		t.Fatal(err)
	}
	if updating() {
		err := Write(path, func(old []byte) []byte {
			pins := parse(old)
			pins[key] = got
			return format(pins)
		})
		if err != nil {
			t.Fatalf("write %s: %v", path, err)
		}
		return
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("read pins (record them with BS_UPDATE_GOLDEN=1): %v", err)
	}
	if want, ok := parse(raw)[key]; !ok {
		t.Errorf("%s: no pin in %s (record it with BS_UPDATE_GOLDEN=1)", key, path)
	} else if got != want {
		t.Errorf("%s: got %s, pinned %s", key, got, want)
	}
}

// manifestPath finds testdata/digests.txt beside the go.mod above the
// working directory, which go test sets to the package under test.
func manifestPath() (string, error) {
	dir, err := os.Getwd()
	for ; err == nil; dir = filepath.Dir(dir) {
		if _, statErr := os.Stat(filepath.Join(dir, "go.mod")); statErr == nil {
			return filepath.Join(dir, "testdata", "digests.txt"), nil
		} else if dir == filepath.Dir(dir) {
			err = errors.New("golden: no go.mod above the working directory")
		}
	}
	return "", err
}

func parse(raw []byte) map[string]string {
	pins := map[string]string{}
	for _, line := range strings.Split(string(raw), "\n") {
		if key, val, ok := strings.Cut(line, " "); ok {
			pins[key] = val
		}
	}
	return pins
}

func format(pins map[string]string) []byte {
	keys := make([]string, 0, len(pins))
	for k := range pins {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var b bytes.Buffer
	for _, k := range keys {
		b.WriteString(k + " " + pins[k] + "\n")
	}
	return b.Bytes()
}

package dnslog

import (
	"bytes"
	"fmt"
	"sync"
)

// Authority is the sensor a record came from: an index into one
// process-wide name table, which keeps a Record at 24 pointer-free bytes.
// The zero Authority is the empty name. Only StandardAuthorities have the
// same id in every process, so files carry names, never ids.
type Authority uint16

// StandardAuthorities are the sensors every world attaches: ids 1, 2, 3.
var StandardAuthorities = [...]string{"b-root", "m-root", "jp"}

const maxAuthorities, maxAuthorityName = 1<<16 - 1, 255

// nameTable interns authority names, at most maxAuthorities of at most
// maxAuthorityName bytes each: a hostile log cannot grow it further.
type nameTable struct {
	mu    sync.Mutex
	names []string
	ids   map[string]Authority
}

var authorities = newNameTable()

func newNameTable() *nameTable {
	t := &nameTable{ids: make(map[string]Authority)}
	for _, name := range append([]string{""}, StandardAuthorities[:]...) {
		t.ids[name] = Authority(len(t.names))
		t.names = append(t.names, name)
	}
	return t
}

// id returns the id of name, registering a copy of it on first sight.
func (t *nameTable) id(name []byte) (Authority, error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	a, ok := t.ids[string(name)]
	switch {
	case ok:
		return a, nil
	case len(name) > maxAuthorityName || bytes.ContainsAny(name, "\t\n"):
		return 0, fmt.Errorf("%w: authority %.40q: over %d bytes, or a tab or newline in it", ErrBadRecord, name, maxAuthorityName)
	case len(t.names) == maxAuthorities:
		return 0, fmt.Errorf("%w: more than %d authority names", ErrBadRecord, maxAuthorities)
	}
	a = Authority(len(t.names))
	t.names = append(t.names, string(name))
	t.ids[t.names[a]] = a
	return a, nil
}

// AuthorityOf returns the id of a sensor name, registering it on first
// sight; ErrBadRecord for a name the table does not admit or has no room for.
func AuthorityOf(name string) (Authority, error) { return authorities.id([]byte(name)) }

// MustAuthority is AuthorityOf for a name the program chose: it panics on
// error.
func MustAuthority(name string) Authority {
	a, err := AuthorityOf(name)
	if err != nil {
		panic(err)
	}
	return a
}

// String returns the sensor's name.
func (a Authority) String() string {
	authorities.mu.Lock()
	defer authorities.mu.Unlock()
	return authorities.names[a]
}

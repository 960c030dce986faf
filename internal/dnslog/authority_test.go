package dnslog

import (
	"bytes"
	"errors"
	"fmt"
	"reflect"
	"strings"
	"sync"
	"testing"
	"unsafe"
)

func TestAuthorityTable(t *testing.T) {
	id := MustAuthority("test-auth-x")
	if again := MustAuthority("test-auth-x"); again != id {
		t.Error("re-registration changed id")
	}
	if id.String() != "test-auth-x" {
		t.Errorf("String() = %q", id.String())
	}
	for i, name := range StandardAuthorities {
		if got := MustAuthority(name); got != Authority(i+1) {
			t.Errorf("standard authority %q has id %d, want %d in every process", name, got, i+1)
		}
	}
	if line := string(Record{}.AppendText(nil)); line != "0\t0.0.0.0\t0.0.0.0\t\t0" {
		t.Errorf("zero Record prints %q, want an empty authority field", line)
	}
	for _, bad := range []string{"a\tb", "a\nb", strings.Repeat("n", maxAuthorityName+1)} {
		if _, err := AuthorityOf(bad); !errors.Is(err, ErrBadRecord) {
			t.Errorf("AuthorityOf(%q): err = %v, want ErrBadRecord", bad, err)
		}
	}
	if _, err := AuthorityOf(strings.Repeat("n", maxAuthorityName)); err != nil {
		t.Errorf("a %d-byte name: %v", maxAuthorityName, err)
	}
}

// A hostile log cannot grow the table without limit, and a full table
// still serves the names it holds.
func TestAuthorityTableBounded(t *testing.T) {
	tab := newNameTable()
	for i := len(tab.names); i < maxAuthorities; i++ {
		if _, err := tab.id([]byte(fmt.Sprintf("hostile-%d", i))); err != nil {
			t.Fatalf("name %d: %v", i, err)
		}
	}
	if _, err := tab.id([]byte("one-too-many")); !errors.Is(err, ErrBadRecord) {
		t.Errorf("name %d: err = %v, want ErrBadRecord", maxAuthorities+1, err)
	}
	if a, err := tab.id([]byte("jp")); err != nil || tab.names[a] != "jp" {
		t.Errorf("a full table lost jp: id %d, err %v", a, err)
	}
	if last := maxAuthorities - 1; tab.names[last] != fmt.Sprintf("hostile-%d", last) {
		t.Errorf("last id %d is %q", last, tab.names[last])
	}
}

// Run with -race: the table is the package's only shared mutable state.
func TestAuthorityConcurrent(t *testing.T) {
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				name := fmt.Sprintf("conc-%d", (g+i)%11)
				r, err := ParseRecord("5\t1.2.3.4\t5.6.7.8\t" + name + "\t0")
				if err != nil || r.Authority.String() != name {
					t.Errorf("%s: parsed authority %q, err %v", name, r.Authority, err)
					return
				}
			}
		}()
	}
	wg.Wait()
}

// TestRecordLayout keeps a later field from silently undoing the layout:
// 24 bytes, and nothing in it for the collector to follow.
func TestRecordLayout(t *testing.T) {
	if size := unsafe.Sizeof(Record{}); size != 24 {
		t.Errorf("Record is %d bytes, want 24", size)
	}
	var walk func(reflect.Type, string)
	walk = func(typ reflect.Type, path string) {
		switch typ.Kind() {
		case reflect.Struct:
			for i := 0; i < typ.NumField(); i++ {
				walk(typ.Field(i).Type, path+"."+typ.Field(i).Name)
			}
		case reflect.Array:
			walk(typ.Elem(), path+"[]")
		case reflect.Bool, reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64,
			reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64,
			reflect.Float32, reflect.Float64, reflect.Complex64, reflect.Complex128:
		default:
			t.Errorf("%s is a %s: a []Record would hold pointers", path, typ.Kind())
		}
	}
	walk(reflect.TypeOf(Record{}), "Record")
}

// TestReaderAllocs: reading a log allocates for the slice it returns and
// nothing per record.
func TestReaderAllocs(t *testing.T) {
	var log bytes.Buffer
	w := NewWriter(&log)
	for i := 0; i < 1000; i++ {
		r := rec(int64(1000+i), "1.2.3.4", "10.0.0.1")
		r.Authority = Authority(1 + i%len(StandardAuthorities))
		if err := w.Write(r); err != nil {
			t.Fatal(err)
		}
	}
	w.Flush()
	data := log.Bytes()

	growths := testing.AllocsPerRun(20, func() {
		var out []Record
		for i := 0; i < 1000; i++ {
			out = append(out, Record{})
		}
	})
	got := testing.AllocsPerRun(20, func() {
		recs, err := NewReader(bytes.NewReader(data)).ReadAll()
		if err != nil || len(recs) != 1000 {
			t.Fatalf("read %d records, err %v", len(recs), err)
		}
	})
	const perReader = 4 // bytes.Reader, Reader, Scanner and the 64 KB line buffer
	if got > growths+perReader {
		t.Errorf("ReadAll of 1000 lines: %.0f allocations, want at most the %.0f slice growths + %d", got, growths, perReader)
	}
}

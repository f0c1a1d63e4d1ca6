package snapshot

import (
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"testing"
)

// TestConcurrentWriteFileSamePath is the store's multi-writer contract
// (the daemon can finish identical analyses back to back, and several
// processes may share one -cache directory): N goroutines racing
// WriteFile on the SAME path must leave exactly one complete, loadable
// snapshot and no temp droppings — the atomic temp+rename discipline,
// under -race.
func TestConcurrentWriteFileSamePath(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "img.rsnap")
	s := sampleSnapshot()

	const writers = 16
	var wg sync.WaitGroup
	errs := make([]error, writers)
	for i := 0; i < writers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			errs[i] = s.WriteFile(path)
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("writer %d: %v", i, err)
		}
	}

	got, err := Load(path)
	if err != nil {
		t.Fatalf("snapshot unreadable after racing writers: %v", err)
	}
	want, err := s.Encode()
	if err != nil {
		t.Fatal(err)
	}
	enc, err := got.Encode()
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(enc, want) {
		t.Fatal("snapshot content corrupted by concurrent writers")
	}
	assertNoTempFiles(t, dir)
}

// TestConcurrentWriteReadHeader: readers probing the header (the warm
// scheduler's header probe) while writers rename over the file must only
// ever see complete headers — never a torn one.
func TestConcurrentWriteReadHeader(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "img.rsnap")
	s := sampleSnapshot()
	if err := s.WriteFile(path); err != nil {
		t.Fatal(err)
	}
	want, err := ReadHeader(path)
	if err != nil {
		t.Fatal(err)
	}

	stop := make(chan struct{})
	var writerWG, readerWG sync.WaitGroup
	for w := 0; w < 4; w++ {
		writerWG.Add(1)
		go func() {
			defer writerWG.Done()
			for i := 0; i < 50; i++ {
				if err := s.WriteFile(path); err != nil {
					t.Errorf("WriteFile: %v", err)
					return
				}
			}
		}()
	}
	for r := 0; r < 4; r++ {
		readerWG.Add(1)
		go func() {
			defer readerWG.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				h, err := ReadHeader(path)
				if err != nil {
					t.Errorf("ReadHeader mid-rename: %v", err)
					return
				}
				if h != want {
					t.Errorf("torn header: %v != %v", h, want)
					return
				}
			}
		}()
	}
	writerWG.Wait() // readers probe throughout every rename
	close(stop)
	readerWG.Wait()
	assertNoTempFiles(t, dir)
}

// assertNoTempFiles fails the test if any .rsnap-* temp file survived —
// every WriteFile path (success or failure) must clean up after itself.
func assertNoTempFiles(t *testing.T, dir string) {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		if strings.HasPrefix(e.Name(), ".rsnap-") {
			t.Fatalf("leftover temp file %s", e.Name())
		}
	}
}

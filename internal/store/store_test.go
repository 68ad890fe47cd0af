package store

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"
)

const testPath = "verdicts.db"

// openMem opens a store over fs at the shared test path, failing the
// test on error.
func openMem(t *testing.T, fs *MemFS, opts Options) *FileStore {
	t.Helper()
	opts.FS = fs
	s, err := Open(testPath, opts)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	return s
}

func mustPut(t *testing.T, s *FileStore, key, val string) {
	t.Helper()
	if err := s.Put(key, []byte(val)); err != nil {
		t.Fatalf("Put(%q): %v", key, err)
	}
}

func wantGet(t *testing.T, s *FileStore, key, val string) {
	t.Helper()
	got, ok, err := s.Get(key)
	if err != nil || !ok || string(got) != val {
		t.Fatalf("Get(%q) = (%q, %v, %v), want (%q, true, nil)", key, got, ok, err, val)
	}
}

func wantMiss(t *testing.T, s *FileStore, key string) {
	t.Helper()
	got, ok, err := s.Get(key)
	if err != nil || ok {
		t.Fatalf("Get(%q) = (%q, %v, %v), want miss", key, got, ok, err)
	}
}

func TestPutGetOverwriteReopen(t *testing.T) {
	fs := NewMemFS()
	s := openMem(t, fs, Options{Fsync: FsyncAlways})
	mustPut(t, s, "a", "alpha")
	mustPut(t, s, "b", "beta")
	mustPut(t, s, "a", "alpha-2") // overwrite: later record wins
	wantGet(t, s, "a", "alpha-2")
	wantGet(t, s, "b", "beta")
	wantMiss(t, s, "c")
	if n := s.Len(); n != 2 {
		t.Fatalf("Len = %d, want 2", n)
	}
	st := s.Stats()
	if st.Records != 2 || st.DeadBytes == 0 {
		t.Fatalf("Stats = %+v, want 2 records and nonzero dead bytes", st)
	}
	if err := s.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}

	// A fresh process: reopen over the same bytes.
	s2 := openMem(t, fs, Options{Fsync: FsyncAlways})
	defer s2.Close()
	wantGet(t, s2, "a", "alpha-2")
	wantGet(t, s2, "b", "beta")
	wantMiss(t, s2, "c")
	if st := s2.Stats(); st.RecoveredBytes != 0 {
		t.Fatalf("clean reopen recovered %d bytes, want 0", st.RecoveredBytes)
	}
}

// TestIndexHashCollisionMisses: the index names keys by hash, so two keys
// can share an entry. A lookup that lands on the other key's record is a
// miss, never that key's value and never a corruption error.
func TestIndexHashCollisionMisses(t *testing.T) {
	s := openMem(t, NewMemFS(), Options{Fsync: FsyncAlways})
	defer s.Close()
	mustPut(t, s, "a", "alpha")
	s.mu.Lock()
	s.index[s.keyOf("b")] = s.index[s.keyOf("a")] // as if "b" hashed like "a"
	s.mu.Unlock()
	wantMiss(t, s, "b")
	wantGet(t, s, "a", "alpha")
}

func TestEmptyValueAndBinaryPayload(t *testing.T) {
	fs := NewMemFS()
	s := openMem(t, fs, Options{Fsync: FsyncAlways})
	bin := string([]byte{0, 1, 255, 10, 13, 0})
	mustPut(t, s, "empty", "")
	mustPut(t, s, "bin", bin)
	s.Close()
	s2 := openMem(t, fs, Options{Fsync: FsyncAlways})
	defer s2.Close()
	wantGet(t, s2, "empty", "")
	wantGet(t, s2, "bin", bin)
}

func TestKeyAndPayloadLimits(t *testing.T) {
	s := openMem(t, NewMemFS(), Options{Fsync: FsyncNever})
	defer s.Close()
	if err := s.Put("", []byte("v")); err == nil {
		t.Error("empty key accepted")
	}
	if err := s.Put(strings.Repeat("k", maxKeyLen), []byte("v")); err == nil {
		t.Error("oversized key accepted")
	}
	if err := s.Put("k", make([]byte, maxPayload)); err == nil {
		t.Error("oversized payload accepted")
	}
	// Nothing torn must be left behind by the rejections.
	mustPut(t, s, "k", "v")
	wantGet(t, s, "k", "v")
}

func TestNotAStoreFile(t *testing.T) {
	fs := NewMemFS()
	fs.SetFileData(testPath, []byte("definitely not a verdict store, longer than the magic"))
	if _, err := Open(testPath, Options{FS: fs}); err == nil {
		t.Fatal("Open accepted a non-store file")
	}
	// The stranger's file must be intact.
	if got := string(fs.FileData(testPath)); !strings.HasPrefix(got, "definitely not") {
		t.Fatalf("foreign file was modified: %q", got)
	}
}

func TestParseFsyncPolicy(t *testing.T) {
	for in, want := range map[string]FsyncPolicy{
		"always": FsyncAlways, "interval": FsyncInterval, "never": FsyncNever, "": FsyncInterval,
	} {
		got, err := ParseFsyncPolicy(in)
		if err != nil || got != want {
			t.Errorf("ParseFsyncPolicy(%q) = (%v, %v), want %v", in, got, err, want)
		}
		if in != "" && got.String() != in {
			t.Errorf("FsyncPolicy.String() = %q, want %q", got.String(), in)
		}
	}
	if _, err := ParseFsyncPolicy("sometimes"); err == nil {
		t.Error("ParseFsyncPolicy accepted garbage")
	}
}

func TestClosedStore(t *testing.T) {
	s := openMem(t, NewMemFS(), Options{Fsync: FsyncNever})
	s.Close()
	if err := s.Put("k", []byte("v")); err != ErrClosed {
		t.Errorf("Put after Close = %v, want ErrClosed", err)
	}
	if _, _, err := s.Get("k"); err != ErrClosed {
		t.Errorf("Get after Close = %v, want ErrClosed", err)
	}
	if err := s.Close(); err != nil {
		t.Errorf("second Close = %v, want nil", err)
	}
}

// TestCompaction drives enough overwrites to trigger background
// compaction and checks that the live set survives byte-identically,
// the log shrinks, and a reopen of the compacted file agrees.
func TestCompaction(t *testing.T) {
	fs := NewMemFS()
	s := openMem(t, fs, Options{Fsync: FsyncAlways, CompactMinBytes: 1024})
	// A handful of live keys overwritten many times: mostly dead bytes.
	for round := 0; round < 50; round++ {
		for k := 0; k < 5; k++ {
			mustPut(t, s, fmt.Sprintf("key-%d", k), fmt.Sprintf("val-%d-round-%d", k, round))
		}
	}
	// Wait for the store to settle: no compaction running and the log
	// below the compaction policy. The first compaction alone proves
	// little — it carries the records appended during its run over
	// verbatim, dead ones included.
	deadline := time.Now().Add(5 * time.Second)
	for !settled(s) {
		if time.Now().After(deadline) {
			t.Fatalf("store did not settle after %+v", s.Stats())
		}
		time.Sleep(time.Millisecond)
	}
	st := s.Stats()
	if st.Compactions == 0 {
		t.Fatalf("no compaction after %+v", st)
	}
	if st.Records != 5 {
		t.Fatalf("Records = %d after compaction, want 5", st.Records)
	}
	for k := 0; k < 5; k++ {
		wantGet(t, s, fmt.Sprintf("key-%d", k), fmt.Sprintf("val-%d-round-49", k))
	}
	if st.SizeBytes >= 1024 {
		t.Errorf("SizeBytes = %d after compaction, want < 1024", st.SizeBytes)
	}
	if fs.Exists(testPath + compactSuffix) {
		t.Error("compaction temp file left behind")
	}
	s.Close()

	s2 := openMem(t, fs, Options{Fsync: FsyncAlways})
	defer s2.Close()
	for k := 0; k < 5; k++ {
		wantGet(t, s2, fmt.Sprintf("key-%d", k), fmt.Sprintf("val-%d-round-49", k))
	}
	if st := s2.Stats(); st.RecoveredBytes != 0 {
		t.Fatalf("reopen after compaction recovered %d bytes, want 0", st.RecoveredBytes)
	}
}

// settled reports whether no compaction is running and the log is below
// the compaction policy, so none will start without another write.
func settled(s *FileStore) bool {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return !s.compacting && !s.overPolicyLocked()
}

// TestConcurrentAccess hammers the store from many goroutines — puts,
// gets, overwrites, with compaction thresholds low enough to trigger
// mid-traffic — and relies on -race for the verdict.
func TestConcurrentAccess(t *testing.T) {
	s := openMem(t, NewMemFS(), Options{Fsync: FsyncNever, CompactMinBytes: 512})
	defer s.Close()
	const goroutines = 8
	const rounds = 200
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < rounds; i++ {
				key := fmt.Sprintf("key-%d", i%7)
				if err := s.Put(key, []byte(fmt.Sprintf("g%d-i%d", g, i))); err != nil {
					t.Errorf("Put: %v", err)
					return
				}
				if _, _, err := s.Get(key); err != nil {
					t.Errorf("Get: %v", err)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	if n := s.Len(); n != 7 {
		t.Fatalf("Len = %d, want 7", n)
	}
}

// TestOSFS exercises the real-disk FS implementation end to end:
// create, write, reopen, compact, close — the MemFS tests prove the
// logic, this one proves the os wrapper.
func TestOSFS(t *testing.T) {
	path := filepath.Join(t.TempDir(), "verdicts.db")
	s, err := Open(path, Options{Fsync: FsyncAlways, CompactMinBytes: 256})
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	for i := 0; i < 50; i++ {
		mustPut(t, s, "hot", fmt.Sprintf("round-%d", i))
	}
	mustPut(t, s, "cold", "stable")
	deadline := time.Now().Add(5 * time.Second)
	for s.Stats().Compactions == 0 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if err := s.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}

	s2, err := Open(path, Options{Fsync: FsyncAlways})
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	defer s2.Close()
	wantGet(t, s2, "hot", "round-49")
	wantGet(t, s2, "cold", "stable")

	// A real torn tail: append garbage to the file and reopen.
	s2.Close()
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0)
	if err != nil {
		t.Fatalf("append garbage: %v", err)
	}
	if _, err := f.Write([]byte{1, 2, 3}); err != nil {
		t.Fatalf("append garbage: %v", err)
	}
	f.Close()
	s3, err := Open(path, Options{Fsync: FsyncAlways})
	if err != nil {
		t.Fatalf("reopen torn: %v", err)
	}
	defer s3.Close()
	wantGet(t, s3, "hot", "round-49")
	if st := s3.Stats(); st.RecoveredBytes != 3 {
		t.Fatalf("RecoveredBytes = %d, want 3", st.RecoveredBytes)
	}
}

// TestIntervalFlusher proves the background flusher makes unsynced
// appends durable without explicit Sync calls.
func TestIntervalFlusher(t *testing.T) {
	fs := NewMemFS()
	s := openMem(t, fs, Options{Fsync: FsyncInterval, Interval: 5 * time.Millisecond})
	defer s.Close()
	mustPut(t, s, "k", "v")
	deadline := time.Now().Add(5 * time.Second)
	want := fs.FileData(testPath)
	for fs.SyncedLen(testPath) < len(want) {
		if time.Now().After(deadline) {
			t.Fatalf("flusher never synced: %d of %d bytes durable", fs.SyncedLen(testPath), len(want))
		}
		time.Sleep(time.Millisecond)
	}
	fs.Crash()
	s2 := openMem(t, fs, Options{Fsync: FsyncAlways})
	defer s2.Close()
	wantGet(t, s2, "k", "v")
}

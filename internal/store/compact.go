package store

import (
	"os"
	"sort"
)

// compactSuffix names the temporary file a compaction writes before the
// atomic rename. Open removes a leftover one (crash mid-compaction).
const compactSuffix = ".compact"

// maybeCompactLocked starts a background compaction when the log is
// both big enough to matter and at least half dead. Called with mu held
// for writing: by Put, and by a compaction that just finished, since the
// tail it carried over verbatim can leave the new log mostly dead.
func (s *FileStore) maybeCompactLocked() {
	if s.compacting || !s.overPolicyLocked() {
		return
	}
	s.compacting = true
	s.wg.Add(1)
	//chaselint:owned Close drains it via wg.Wait; the compacting flag makes it unique
	go s.compact()
}

// overPolicyLocked reports whether the log is both big enough to matter
// and at least half dead. Called with mu held.
func (s *FileStore) overPolicyLocked() bool {
	return s.size >= s.opts.CompactMinBytes && s.deadBytes*2 >= s.size
}

// compact rewrites the live records to a temp file and atomically
// renames it over the log. The long phase — copying the live set — runs
// against a read-locked snapshot while appends continue; the brief
// final phase takes the write lock to copy the appended tail, sync,
// rename, and swap the handle. Every failure path abandons the temp
// file and leaves the store exactly as it was: compaction is an
// optimization and must never be a new way to lose verdicts.
func (s *FileStore) compact() {
	defer s.wg.Done()

	s.mu.RLock()
	if s.closed || s.failed != nil {
		s.mu.RUnlock()
		s.setCompacting(false)
		return
	}
	src := s.f
	snapSize := s.size
	refs := make([]recordRef, 0, len(s.index))
	for _, ref := range s.index {
		refs = append(refs, ref)
	}
	s.mu.RUnlock()
	// Preserve log order so identical live sets compact to identical
	// logs regardless of map iteration.
	sort.Slice(refs, func(i, j int) bool { return refs[i].off < refs[j].off })

	tmpPath := s.path + compactSuffix
	abort := func(tmp File) {
		if tmp != nil {
			tmp.Close() //nolint:errcheck // already abandoning it
		}
		s.fs.Remove(tmpPath) //nolint:errcheck // best-effort cleanup
		s.setCompacting(false)
	}
	tmp, err := s.fs.OpenFile(tmpPath, os.O_RDWR|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		abort(nil)
		return
	}
	if _, err := tmp.WriteAt([]byte(magic), 0); err != nil {
		abort(tmp)
		return
	}
	newSize := int64(len(magic))
	newIndex := make(map[indexKey]recordRef, len(refs))
	for _, ref := range refs {
		buf := make([]byte, ref.size)
		// The snapshot region [0, snapSize) is immutable — the store only
		// appends — so reading it without the lock is safe.
		if n, _ := src.ReadAt(buf, ref.off); n < len(buf) {
			abort(tmp)
			return
		}
		ok := false
		scanRecords(buf, newSize, func(key string, _ []byte, nref recordRef) {
			newIndex[s.keyOf(key)] = nref
			ok = true
		})
		if !ok {
			abort(tmp)
			return
		}
		if _, err := tmp.WriteAt(buf, newSize); err != nil {
			abort(tmp)
			return
		}
		newSize += ref.size
	}

	s.mu.Lock()
	defer s.mu.Unlock()
	abortLocked := func() {
		tmp.Close()          //nolint:errcheck // already abandoning it
		s.fs.Remove(tmpPath) //nolint:errcheck // best-effort cleanup
		s.compacting = false
	}
	if s.closed || s.failed != nil {
		abortLocked()
		return
	}
	// Records appended while the live set was copying form a contiguous
	// tail; carry them over verbatim and index them on top.
	var newDead int64
	if tail := s.size - snapSize; tail > 0 {
		buf := make([]byte, tail)
		if n, _ := src.ReadAt(buf, snapSize); n < len(buf) {
			abortLocked()
			return
		}
		if _, err := tmp.WriteAt(buf, newSize); err != nil {
			abortLocked()
			return
		}
		if n := scanRecords(buf, newSize, func(key string, _ []byte, nref recordRef) {
			k := s.keyOf(key)
			if old, ok := newIndex[k]; ok {
				newDead += old.size
			}
			newIndex[k] = nref
		}); n != tail {
			abortLocked()
			return
		}
		newSize += tail
	}
	// The rename must never travel ahead of the data: sync the temp
	// regardless of policy.
	if err := tmp.Sync(); err != nil {
		abortLocked()
		return
	}
	if err := s.fs.Rename(tmpPath, s.path); err != nil {
		abortLocked()
		return
	}
	old := s.f
	s.f = tmp
	s.size = newSize
	s.index = newIndex
	s.deadBytes = newDead
	s.dirty = false
	s.compactions.Add(1)
	old.Close() //nolint:errcheck // the log it held was just replaced
	s.compacting = false
	s.maybeCompactLocked()
}

// setCompacting clears (or sets) the flag outside a held lock.
func (s *FileStore) setCompacting(v bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.compacting = v
}

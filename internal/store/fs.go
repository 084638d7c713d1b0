package store

import (
	"errors"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
)

func init() {
	RegisterDriver("fs", func(rest string) (Driver, error) { return NewFS(rest, nil) })
}

// tmpSeq disambiguates concurrent temp files within one process; the PID
// disambiguates across processes sharing a store directory.
var tmpSeq atomic.Uint64

// FS is the filesystem driver: one file per entry named by its key, tmp +
// fsync + rename + parent-directory fsync on every Put, corrupt entries
// moved to a quarantine/ subdirectory. Multiple processes may share a
// directory: publishes are atomic renames from unique temp names, and the
// last writer of a key wins (entries are content-addressed, so concurrent
// writers of the same key carry identical payloads anyway).
type FS struct {
	root   string
	faults FaultInjector // nil = clean IO

	mu sync.Mutex // serializes fault decisions (injectors are not concurrent-safe)
}

// NewFS opens (creating if needed) a filesystem store rooted at dir. A
// non-nil FaultInjector perturbs subsequent physical IO — tests and chaos
// runs use it to force torn writes, ENOSPC and read errors. The
// quarantine/ subdirectory is created by the first Quarantine, so a store
// that never saw a corrupt entry holds only entry files.
func NewFS(dir string, faults FaultInjector) (*FS, error) {
	if dir == "" {
		return nil, errors.New("store: fs driver needs a directory (fs:<dir>)")
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("store: fs init: %w", err)
	}
	return &FS{root: dir, faults: faults}, nil
}

// Name implements Driver.
func (f *FS) Name() string { return "fs" }

func (f *FS) path(key string) string { return filepath.Join(f.root, key+".entry") }

// Put implements Driver: publish through WriteFileAtomic (unique temp name,
// fsync, rename into place, parent-directory fsync), after the fault
// injector has had its chance to tear or refuse the write.
func (f *FS) Put(key string, data []byte) error {
	if !validKey(key) {
		return fmt.Errorf("store: invalid key %q", key)
	}
	if f.faults != nil {
		f.mu.Lock()
		keep, err := f.faults.WriteFault(len(data))
		f.mu.Unlock()
		if err != nil {
			return fmt.Errorf("store: fs write %s: %w: %w", key, ErrTransient, err)
		}
		data = data[:keep]
	}
	if err := WriteFileAtomic(f.path(key), data); err != nil {
		return fmt.Errorf("store: fs publish %s: %w: %w", key, ErrTransient, err)
	}
	return nil
}

// Get implements Driver.
func (f *FS) Get(key string) ([]byte, error) {
	if !validKey(key) {
		return nil, fmt.Errorf("store: invalid key %q", key)
	}
	if f.faults != nil {
		f.mu.Lock()
		err := f.faults.ReadFault()
		f.mu.Unlock()
		if err != nil {
			return nil, fmt.Errorf("store: fs read %s: %w: %w", key, ErrTransient, err)
		}
	}
	data, err := os.ReadFile(f.path(key))
	switch {
	case errors.Is(err, fs.ErrNotExist):
		return nil, ErrNotFound
	case err != nil:
		return nil, fmt.Errorf("store: fs read %s: %w: %w", key, ErrTransient, err)
	}
	return data, nil
}

// Quarantine implements Driver: the corrupt entry moves to
// quarantine/<key>.entry.<seq>, so repeated corruption of the same key
// never overwrites earlier evidence.
func (f *FS) Quarantine(key string) error {
	if !validKey(key) {
		return fmt.Errorf("store: invalid key %q", key)
	}
	qdir := filepath.Join(f.root, "quarantine")
	if err := os.MkdirAll(qdir, 0o755); err != nil {
		return fmt.Errorf("store: fs quarantine %s: %w", key, err)
	}
	dst := filepath.Join(qdir, fmt.Sprintf("%s.entry.%d-%d", key, os.Getpid(), tmpSeq.Add(1)))
	err := os.Rename(f.path(key), dst)
	if errors.Is(err, fs.ErrNotExist) {
		return nil // a concurrent reader already moved it
	}
	if err != nil {
		return fmt.Errorf("store: fs quarantine %s: %w", key, err)
	}
	return syncDir(f.root)
}

// Keys implements Driver.
func (f *FS) Keys() ([]string, error) { return FSKeys(f.root) }

// FSKeys lists, sorted, the entry keys of the fs store rooted at dir,
// without opening the store: it creates nothing, and a missing directory
// holds no keys. Callers that only count a store's entries (the sweep
// service's durable progress) use it so that the on-disk entry name stays
// private to this package.
func FSKeys(dir string) ([]string, error) {
	ents, err := os.ReadDir(dir)
	if errors.Is(err, fs.ErrNotExist) {
		return nil, nil
	}
	if err != nil {
		return nil, fmt.Errorf("store: fs list: %w", err)
	}
	var keys []string
	for _, e := range ents {
		name := e.Name()
		if e.IsDir() || !strings.HasSuffix(name, ".entry") {
			continue // quarantine/, temp files mid-publish
		}
		keys = append(keys, strings.TrimSuffix(name, ".entry"))
	}
	sort.Strings(keys)
	return keys, nil
}

// Flush implements Driver. Every Put already fsyncs its file and the
// directory, so the barrier only re-syncs the directory to cover renames
// performed by Quarantine.
func (f *FS) Flush() error { return syncDir(f.root) }

// Close implements Driver.
func (f *FS) Close() error { return nil }

// writeFileSync writes data to path and fsyncs it before closing — the
// first half of the atomic-publish protocol.
func writeFileSync(path string, data []byte) error {
	fh, err := os.OpenFile(path, os.O_WRONLY|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return err
	}
	if _, err := fh.Write(data); err != nil {
		return errors.Join(err, fh.Close())
	}
	if err := fh.Sync(); err != nil {
		return errors.Join(err, fh.Close())
	}
	return fh.Close()
}

// syncDir fsyncs a directory so a just-renamed entry survives power loss —
// rename alone only guarantees atomicity, not durability, until the parent
// directory's metadata reaches the journal.
func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	err = d.Sync()
	if cerr := d.Close(); err == nil {
		err = cerr
	}
	return err
}

// WriteFileAtomic is the shared tmp + fsync + rename + dir-fsync publish
// used by the fs driver and by the sweep service's own journal files:
// after it returns, the complete file is durable under path; a crash at
// any earlier point leaves the previous content (or nothing).
func WriteFileAtomic(path string, data []byte) error {
	tmp := fmt.Sprintf("%s.tmp-%d-%d", path, os.Getpid(), tmpSeq.Add(1))
	if err := writeFileSync(tmp, data); err != nil {
		os.Remove(tmp)
		return err
	}
	if err := os.Rename(tmp, path); err != nil {
		os.Remove(tmp)
		return err
	}
	return syncDir(filepath.Dir(path))
}

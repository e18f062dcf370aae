package store

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"sync"

	"defectsim/internal/faultinject"
)

// FS is the filesystem backend: one file per key under a directory,
// written through AtomicWrite so a reader or a crash never observes a
// partial entry and same-key writes within the process are serialized;
// across processes the rename makes last-writer-wins safe because
// content-addressed keys imply identical bytes.
type FS struct {
	dir string
	ext string
	m   *Metrics
}

// NewFS returns a filesystem store rooted at dir, creating it if needed.
// Entries are stored as <dir>/<key>.json — the same layout the serving
// layer's CacheDir always used, so existing cache directories carry over.
func NewFS(dir string, m *Metrics) (*FS, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("store: fs: %w", err)
	}
	return &FS{dir: dir, ext: ".json", m: m}, nil
}

// Name implements Store.
func (f *FS) Name() string { return "fs" }

func (f *FS) path(key string) string { return filepath.Join(f.dir, key+f.ext) }

// Get implements Store.
func (f *FS) Get(ctx context.Context, key string) ([]byte, error) {
	if !ValidKey(key) {
		return nil, errBadKey(key)
	}
	if err := faultinject.Fire(faultinject.WithTarget(ctx, f.Name()), faultinject.HookStoreGet); err != nil {
		f.m.op(f.Name(), "get", "error")
		return nil, err
	}
	data, err := os.ReadFile(f.path(key))
	if err != nil {
		if os.IsNotExist(err) {
			f.m.op(f.Name(), "get", "miss")
			return nil, fmt.Errorf("%w: %s", ErrNotFound, key)
		}
		f.m.op(f.Name(), "get", "error")
		return nil, fmt.Errorf("store: fs get %s: %w", key, err)
	}
	f.m.op(f.Name(), "get", "hit")
	return data, nil
}

// Put implements Store.
func (f *FS) Put(ctx context.Context, key string, data []byte) error {
	if !ValidKey(key) {
		return errBadKey(key)
	}
	if err := faultinject.Fire(faultinject.WithTarget(ctx, f.Name()), faultinject.HookStorePut); err != nil {
		f.m.op(f.Name(), "put", "error")
		return err
	}
	if err := AtomicWrite(f.path(key), data); err != nil {
		f.m.op(f.Name(), "put", "error")
		return fmt.Errorf("store: fs put %s: %w", key, err)
	}
	f.m.op(f.Name(), "put", "ok")
	return nil
}

// Stat implements Store.
func (f *FS) Stat(ctx context.Context, key string) (bool, error) {
	if !ValidKey(key) {
		return false, errBadKey(key)
	}
	if err := faultinject.Fire(faultinject.WithTarget(ctx, f.Name()), faultinject.HookStoreStat); err != nil {
		f.m.op(f.Name(), "stat", "error")
		return false, err
	}
	_, err := os.Stat(f.path(key))
	if err != nil {
		if os.IsNotExist(err) {
			f.m.op(f.Name(), "stat", "miss")
			return false, nil
		}
		f.m.op(f.Name(), "stat", "error")
		return false, fmt.Errorf("store: fs stat %s: %w", key, err)
	}
	f.m.op(f.Name(), "stat", "hit")
	return true, nil
}

// writeLocks serializes AtomicWrite calls to the same path within this
// process. Unserialized, two renames onto one path still race benignly
// (last writer wins), but the interleaved temp-file churn is pointless
// work. Readers never need the lock: they see either the old or the new
// complete file. One mutex per distinct cleaned absolute path for the
// life of the process — bounded by the set of entries, not by request
// volume.
var writeLocks sync.Map // cleaned absolute path → *sync.Mutex

func writeLock(path string) *sync.Mutex {
	if abs, err := filepath.Abs(path); err == nil {
		path = abs
	}
	mu, _ := writeLocks.LoadOrStore(filepath.Clean(path), &sync.Mutex{})
	return mu.(*sync.Mutex)
}

// AtomicWrite commits data to path through a temp file in the same
// directory: write, fsync, rename, fsync the directory. Concurrent calls
// for the same path within the process are serialized (last writer
// wins). The fsync before the rename is load-bearing — on filesystems
// with delayed allocation a crash shortly after an unsynced rename can
// leave the *renamed* file empty, i.e. a committed-looking but
// zero-length cache entry; syncing the file first guarantees the rename
// only ever publishes durable bytes.
// The directory fsync makes the rename itself durable (best effort: some
// platforms reject fsync on directories, which only widens the crash
// window for the entry's existence, never its integrity).
//
// The faultinject.HookCacheWrite point fires between the fsync and the
// rename with the temp path as target; an injected error aborts before
// the rename (the crash-before-commit case) and leaves path untouched.
func AtomicWrite(path string, data []byte) error {
	mu := writeLock(path)
	mu.Lock()
	defer mu.Unlock()
	dir := filepath.Dir(path)
	tmp, err := os.CreateTemp(dir, filepath.Base(path)+".tmp*")
	if err != nil {
		return err
	}
	tmpName := tmp.Name()
	_, werr := tmp.Write(data)
	if werr == nil {
		werr = tmp.Sync()
	}
	cerr := tmp.Close()
	if werr == nil {
		werr = cerr
	}
	if werr == nil {
		werr = faultinject.Fire(faultinject.WithTarget(context.Background(), tmpName), faultinject.HookCacheWrite)
	}
	if werr == nil {
		werr = os.Chmod(tmpName, 0o644)
	}
	if werr == nil {
		werr = os.Rename(tmpName, path)
	}
	if werr != nil {
		os.Remove(tmpName)
		return werr
	}
	if d, err := os.Open(dir); err == nil {
		_ = d.Sync() // durability of the rename; integrity never depends on it
		_ = d.Close()
	}
	return nil
}

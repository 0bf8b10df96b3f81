package service

import (
	"errors"
	"fmt"
	"hash/fnv"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"

	"repro/internal/fault"
	"repro/internal/frame"
	"repro/internal/sim"
)

// Durability failpoints (see internal/fault): durable.put drops one persist
// write on the floor (the in-memory cache stays correct, the disk copy is
// lost — what a full disk or a crash between completion and persist looks
// like); durable.load panics mid-boot-load, modelling a crash while
// replaying the on-disk cache.
var (
	fpDurablePut  = fault.Register(fault.SiteDurablePut)
	fpDurableLoad = fault.Register(fault.SiteDurableLoad)
)

// Durable record framing (internal/frame): magic + version +
// length-prefixed JSON payload + CRC32 trailer, one file per cache entry. The payload carries the cache key
// alongside the Result so a load can verify the file holds what its name
// promises (names are sanitized and may collide in principle).
const (
	durableMagic   = "EMCR"
	durableVersion = 1
	durableExt     = ".res"
	corruptExt     = ".corrupt"
)

// ErrRecordCorrupt marks a record that failed structural validation: the
// loader quarantines the file instead of serving a torn result, and a fabric
// node rejects a peer's torn frame.
var ErrRecordCorrupt = errors.New("service: durable record corrupt")

// durableRecord is the JSON payload inside a durable frame.
type durableRecord struct {
	Key    string      `json:"key"`
	Result *sim.Result `json:"result"`
}

// durableOp is one unit of work for the persister goroutine.
type durableOp struct {
	rec   *durableRecord // write rec to disk when non-nil
	del   string         // delete the record for this key when non-empty
	flush chan struct{}  // closed once every prior op has been applied
}

// durableStore is the write-through disk backing of the result cache: every
// put is persisted asynchronously (a single persister goroutine serializes
// writes; completion latency is never on the submit/worker path), every LRU
// eviction deletes its file, and boot replays the directory back into the
// cache, quarantining corrupt records as <name>.corrupt instead of failing.
type durableStore struct {
	dir string

	mu     sync.Mutex
	closed bool
	ch     chan durableOp
	wg     sync.WaitGroup

	persisted   atomic.Uint64
	persistErrs atomic.Uint64
	loaded      atomic.Uint64
	quarantined atomic.Uint64
}

// openDurableStore creates dir if needed and starts the persister.
func openDurableStore(dir string) (*durableStore, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("service: durable cache dir: %w", err)
	}
	d := &durableStore{dir: dir, ch: make(chan durableOp, 256)}
	d.wg.Add(1)
	go d.persister()
	return d, nil
}

// load replays every durable record in the directory through fn (which seeds
// the in-memory cache). Corrupt or unreadable records are renamed to
// <name>.corrupt and counted; they never abort the boot.
func (d *durableStore) load(fn func(key string, res *sim.Result)) error {
	entries, err := os.ReadDir(d.dir)
	if err != nil {
		return fmt.Errorf("service: durable cache scan: %w", err)
	}
	for _, e := range entries {
		if e.IsDir() || !strings.HasSuffix(e.Name(), durableExt) {
			continue
		}
		fpDurableLoad.MustPanic()
		path := filepath.Join(d.dir, e.Name())
		key, res, err := readDurableRecord(path)
		if err != nil {
			d.quarantined.Add(1)
			// Move aside so the next boot does not re-parse the same junk;
			// the operator can inspect or delete *.corrupt at leisure.
			_ = os.Rename(path, path+corruptExt)
			continue
		}
		fn(key, res)
		d.loaded.Add(1)
	}
	return nil
}

// persist enqueues a write-through of res; drops (and counts) it only if the
// store has been closed underneath the caller.
func (d *durableStore) persist(key string, res *sim.Result) {
	d.enqueue(durableOp{rec: &durableRecord{Key: key, Result: res}})
}

// remove enqueues deletion of key's record (LRU eviction made it stale).
func (d *durableStore) remove(key string) {
	d.enqueue(durableOp{del: key})
}

func (d *durableStore) enqueue(op durableOp) {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.closed {
		if op.rec != nil {
			d.persistErrs.Add(1)
		}
		if op.flush != nil {
			close(op.flush)
		}
		return
	}
	d.ch <- op
}

// flush blocks until every previously enqueued write and delete has been
// applied to disk. This is the shutdown barrier: emcserve calls it before
// reporting the durable cache flushed.
func (d *durableStore) flush() {
	done := make(chan struct{})
	d.enqueue(durableOp{flush: done})
	<-done
}

// close flushes and stops the persister. Idempotent.
func (d *durableStore) close() {
	d.mu.Lock()
	if d.closed {
		d.mu.Unlock()
		return
	}
	d.closed = true
	close(d.ch)
	d.mu.Unlock()
	d.wg.Wait()
}

// persister applies ops in order; ordering per key is what makes
// write-then-evict and evict-then-rewrite both land in the right final
// state.
func (d *durableStore) persister() {
	defer d.wg.Done()
	for op := range d.ch {
		switch {
		case op.rec != nil:
			if fpDurablePut.Fire() {
				d.persistErrs.Add(1)
				continue
			}
			if err := writeDurableRecord(d.dir, op.rec); err != nil {
				d.persistErrs.Add(1)
			} else {
				d.persisted.Add(1)
			}
		case op.del != "":
			_ = os.Remove(filepath.Join(d.dir, durableFileName(op.del)))
		case op.flush != nil:
			close(op.flush)
		}
	}
}

// durableFileName maps a cache key to a filesystem-safe name. Keys are
// fingerprint strings ("emcfp1-<hex>+obs:8,true"); punctuation outside
// [A-Za-z0-9._-] is folded to '_' and an FNV tag of the raw key keeps folded
// names collision-free.
func durableFileName(key string) string {
	h := fnv.New32a()
	h.Write([]byte(key))
	var b strings.Builder
	for _, r := range key {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r >= '0' && r <= '9',
			r == '.', r == '_', r == '-':
			b.WriteRune(r)
		default:
			b.WriteByte('_')
		}
	}
	return fmt.Sprintf("%s-%08x%s", b.String(), h.Sum32(), durableExt)
}

// writeDurableRecord atomically writes rec's frame under its final name
// (frame.WriteFile: temp file, fsync, rename). Torn temp files are ignored by
// load and overwritten later.
func writeDurableRecord(dir string, rec *durableRecord) error {
	data, err := EncodeRecord(rec.Key, rec.Result)
	if err != nil {
		return err
	}
	return frame.WriteFile(filepath.Join(dir, durableFileName(rec.Key)), data)
}

// readDurableRecord reads and validates one record file.
func readDurableRecord(path string) (string, *sim.Result, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return "", nil, err
	}
	return DecodeRecord(data)
}

// EncodeRecord frames a completed result as a durable EMCR record: "EMCR" +
// u16 version + u32 payload length + JSON payload + u32 CRC32(payload), all
// little-endian. The on-disk cache writes these bytes, and they are the
// fabric's peer-fetch and backfill wire format too (a record is valid
// anywhere).
func EncodeRecord(key string, res *sim.Result) ([]byte, error) {
	return frame.Encode(durableMagic, durableVersion, durableRecord{Key: key, Result: res})
}

// DecodeRecord validates an EMCR frame end to end (magic, version, length,
// CRC, payload shape) and returns its key and Result. Every failure mode
// wraps ErrRecordCorrupt, so the loader's quarantine decision and a fabric
// node's torn-frame check are one test each.
func DecodeRecord(data []byte) (string, *sim.Result, error) {
	var rec durableRecord
	if err := frame.Decode(data, durableMagic, durableVersion, ErrRecordCorrupt, &rec); err != nil {
		return "", nil, err
	}
	if rec.Key == "" || rec.Result == nil {
		return "", nil, fmt.Errorf("%w: incomplete record", ErrRecordCorrupt)
	}
	return rec.Key, rec.Result, nil
}

package mem

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"

	"lfrc/internal/fault"
	"lfrc/internal/obs"
	"lfrc/internal/stripe"
)

const (
	segBits  = 16
	segWords = 1 << segBits
	segMask  = segWords - 1
	maxSegs  = 1024

	// firstAddr is where bump allocation starts; low addresses are
	// reserved so that 0 remains the null reference. It is one line, so
	// the first slot starts on a line.
	firstAddr = LineWords
)

type segment [segWords]uint64

// Heap is the simulated shared heap. All methods are safe for concurrent use
// unless noted otherwise; cell accesses are individually atomic.
type Heap struct {
	segs  [maxSegs]atomic.Pointer[segment]
	next  atomic.Uint64 // bump pointer (word index); advances one slab at a time
	limit uint64        // arena size in words

	// shards stripe the allocator: per-shard free lists and bump chunks.
	// A goroutine uses the shard of the P it runs on; see shard.go.
	shards []allocShard

	// global holds the overflow free lists shards migrate to and refill
	// from, one Treiber stack per slot size (indexed by class); globalFree
	// tracks their total occupancy.
	global     [sizeClasses]freeStack
	globalFree atomic.Int64

	typeMu    sync.Mutex
	typeCount atomic.Uint32
	types     [maxTypes]TypeDesc

	// obs is the optional flight recorder shared with the RC layer; nil
	// means disabled (every call on it is a single nil check).
	obs *obs.Recorder

	// fj is the optional fault injector shared with the RC layer; nil
	// means disabled. Alloc consults it to force exhaustion (fault.MemAlloc)
	// or the allocator slow path (fault.MemAllocSlow).
	fj *fault.Injector

	// stats is striped in lockstep with shards (stats[i] counts work
	// routed to shards[i]); highWater is global but updated only once per
	// slab claim.
	stats     []statStripe
	highWater atomic.Int64

	// epoch is the lifecycle auditor's pass clock: a coarse logical clock
	// it advances once per audit pass. Alloc and Free
	// stamp their flight events with it so a timeline shows *when*, in
	// audit time, a slot was carved, freed, or reused.
	epoch atomic.Uint64
}

// Option configures a Heap.
type Option func(*heapConfig)

type heapConfig struct {
	maxWords uint64

	// obs is the optional flight recorder shared with the RC layer; nil
	// means disabled (every call on it is a single nil check).
	obs         *obs.Recorder
	allocShards int
	fj          *fault.Injector
}

// WithMaxWords caps the arena at n 64-bit words. The default is 64Mi words
// (512 MiB of simulated memory).
func WithMaxWords(n uint64) Option {
	return func(c *heapConfig) { c.maxWords = n }
}

// WithAllocShards sets the number of allocation shards — per-shard free
// lists and bump chunks — the heap stripes its allocator across. The default
// is runtime.GOMAXPROCS(0); values are clamped to [1, 64]. Pin it explicitly
// for reproducible benchmarks.
func WithAllocShards(n int) Option {
	return func(c *heapConfig) { c.allocShards = n }
}

// WithObserver attaches a flight recorder: allocator events (alloc, free,
// cross-shard steals) are sampled into it, and poison-corruption detection
// captures a postmortem of the trailing events that touched the damaged slot.
// A nil recorder leaves observation disabled.
func WithObserver(r *obs.Recorder) Option {
	return func(c *heapConfig) { c.obs = r }
}

// WithFault attaches a fault injector: Alloc consults it at the declared
// mem.alloc (forced ErrOutOfMemory) and mem.alloc.slow (forced allocator
// slow path) injection points. A nil injector leaves injection disabled.
func WithFault(in *fault.Injector) Option {
	return func(c *heapConfig) { c.fj = in }
}

// NewHeap creates an empty heap.
func NewHeap(opts ...Option) *Heap {
	cfg := heapConfig{maxWords: 64 << 20}
	for _, o := range opts {
		o(&cfg)
	}
	if cfg.maxWords > uint64(maxSegs)*segWords {
		cfg.maxWords = uint64(maxSegs) * segWords
	}
	if cfg.maxWords < segWords {
		cfg.maxWords = segWords
	}
	shards := stripe.Clamp(cfg.allocShards, runtime.GOMAXPROCS(0))
	h := &Heap{
		limit:  cfg.maxWords,
		obs:    cfg.obs,
		fj:     cfg.fj,
		shards: make([]allocShard, shards),
		stats:  make([]statStripe, shards),
	}
	h.next.Store(firstAddr)
	h.ensureSegment(0)
	return h
}

// Shards reports the number of allocation shards the heap was built with.
func (h *Heap) Shards() int { return len(h.shards) }

// Epoch returns the current reclamation epoch (see AdvanceEpoch).
func (h *Heap) Epoch() uint64 { return h.epoch.Load() }

// AdvanceEpoch ticks the reclamation epoch and returns the new value. The
// lifecycle auditor calls it once per audit pass; allocator flight events are
// stamped with the epoch they happened in.
func (h *Heap) AdvanceEpoch() uint64 { return h.epoch.Add(1) }

// shardIndex routes the calling goroutine to the allocation shard (and stat
// stripe) of the P it runs on. A locality hint only: the goroutine may
// migrate, and any goroutine may touch any shard.
func (h *Heap) shardIndex() int { return stripe.Hint(len(h.shards)) }

// ensureSegment lazily installs the backing array for segment i. A segment
// is a large Go allocation, which the runtime places on a page boundary, so
// a line-aligned word index is a line-aligned cell.
func (h *Heap) ensureSegment(i uint32) *segment {
	if s := h.segs[i].Load(); s != nil {
		return s
	}
	s := new(segment)
	if h.segs[i].CompareAndSwap(nil, s) {
		return s
	}
	return h.segs[i].Load()
}

// cell returns the storage cell for address a. The address must lie within
// the allocated arena. It is small enough to inline, and with it Load,
// Store and CAS, into the engines' hot paths, so it carries no check of its
// own: an address in a segment never mapped panics as a nil dereference,
// and one past the last segment as an index out of range.
func (h *Heap) cell(a Addr) *uint64 {
	return &h.segs[a>>segBits].Load()[a&segMask]
}

// Load atomically reads the cell at a.
func (h *Heap) Load(a Addr) uint64 {
	return atomic.LoadUint64(h.cell(a))
}

// Store atomically writes v into the cell at a.
func (h *Heap) Store(a Addr, v uint64) {
	atomic.StoreUint64(h.cell(a), v)
}

// CAS atomically compares-and-swaps the cell at a.
func (h *Heap) CAS(a Addr, old, new uint64) bool {
	return atomic.CompareAndSwapUint64(h.cell(a), old, new)
}

// RCAddr returns the address of an object's reference-count cell.
func (h *Heap) RCAddr(r Ref) Addr { return r + 1 }

// AuxAddr returns the address of an object's aux cell (free-list link while
// the object is freed; available to reclamation machinery while it is live).
func (h *Heap) AuxAddr(r Ref) Addr { return r + 2 }

// FieldAddr returns the address of payload field i of object r. It does not
// validate i against the object's type; callers index within the TypeDesc
// they registered.
func (h *Heap) FieldAddr(r Ref, i int) Addr { return r + HeaderWords + Addr(i) }

// RegisterType adds a type descriptor and returns its TypeID. Registration
// is serialized and must complete before the heap is used concurrently with
// the new type; lookups by running threads never block.
func (h *Heap) RegisterType(d TypeDesc) (TypeID, error) {
	if err := d.validate(); err != nil {
		return 0, err
	}
	h.typeMu.Lock()
	defer h.typeMu.Unlock()
	n := h.typeCount.Load()
	if n >= maxTypes {
		return 0, ErrTooManyTypes
	}
	d.PtrFields = append([]int(nil), d.PtrFields...)
	h.types[n] = d
	h.typeCount.Store(n + 1)
	return TypeID(n), nil
}

// MustRegisterType is RegisterType for static setup code; it panics on error.
func (h *Heap) MustRegisterType(d TypeDesc) TypeID {
	t, err := h.RegisterType(d)
	if err != nil {
		panic(err)
	}
	return t
}

// Type returns the descriptor for id. The returned descriptor shares the
// registered PtrFields slice; callers must not modify it.
func (h *Heap) Type(id TypeID) (TypeDesc, error) {
	if uint32(id) >= h.typeCount.Load() {
		return TypeDesc{}, fmt.Errorf("%w: unknown type id %d", ErrBadType, id)
	}
	return h.types[id], nil
}

// typeOf is the fast internal lookup; the id comes from a header we wrote.
func (h *Heap) typeOf(id TypeID) *TypeDesc { return &h.types[id] }

// Header introspection -------------------------------------------------------

// TypeOf returns the TypeID of the object at r.
func (h *Heap) TypeOf(r Ref) TypeID { return headerType(h.Load(r)) }

// IsFreed reports whether the object at r currently has its freed bit set.
func (h *Heap) IsFreed(r Ref) bool { return headerFreed(h.Load(r)) }

// Generation returns the allocation generation of the slot at r. It
// increments every time the slot is reallocated, which lets diagnostics
// detect stale references.
func (h *Heap) Generation(r Ref) uint32 { return headerGen(h.Load(r)) }

// InArena reports whether a names a word inside the currently carved arena.
func (h *Heap) InArena(a Addr) bool {
	return a >= firstAddr && uint64(a) < h.next.Load()
}

// Block is one object slot as decoded from a single atomic header read. All
// fields describe the same instant: a block observed live here cannot have
// been half-freed between separate TypeOf/IsFreed calls, which matters to
// observers (the heap census) that walk while mutators run.
type Block struct {
	Ref   Ref
	Type  TypeID
	Size  int // slot words, header included (whole lines)
	Freed bool
	Gen   uint32
}

// WalkBlocks visits every object slot ever carved from the arena, live or
// freed, in address order, until fn returns false. It decodes the whole
// header once per slot and hands the caller a self-consistent Block. It is
// the one heap walk: the census builds its object graph on it, and through
// the census the backup collector and the count audit.
//
// Each header is one atomic load, so a walk tolerates concurrent mutation;
// only a quiescent heap yields a coherent picture. Words below the global
// cursor that hold no object — unfilled shard-chunk tails, remainders
// abandoned on refill, slivers skipped at segment boundaries — were never
// written and still read zero, whose size field is invalid; WalkBlocks
// steps over them word by word.
func (h *Heap) WalkBlocks(fn func(b Block) bool) {
	end := h.next.Load()
	for a := uint64(firstAddr); a < end; {
		hdr := h.Load(Addr(a))
		size := headerSize(hdr)
		if size < HeaderWords || size > maxObjWords {
			a++
			continue
		}
		b := Block{
			Ref:   Ref(a),
			Type:  headerType(hdr),
			Size:  size,
			Freed: headerFreed(hdr),
			Gen:   headerGen(hdr),
		}
		if !fn(b) {
			return
		}
		a += uint64(size)
	}
}

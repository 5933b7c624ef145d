package pipeline

import (
	"cmp"
	"math"
	"slices"
	"strings"
	"sync"
)

// Value interning. Every Space carries a table assigning each observed
// Value a dense uint32 code per parameter. Instances cache their code
// vector and a 64-bit FNV-1a hash of it at construction, which makes
// identity operations (Equal, DisjointFrom, DiffCount, map lookups in the
// provenance store and the executor) integer comparisons with zero
// allocations; the string Key() survives only for codecs and display.
//
// Codes are runtime artifacts of one Space: they are assigned in first-
// intern order (domain values first, in sorted domain order) and are only
// comparable between values of the same parameter of the same Space. The
// durable provenance log may persist code vectors, but only alongside a
// dictionary of (parameter, code, value) assignments replayed in order
// through Space.Intern, which reproduces the exact assignment sequence (see
// internal/provlog).

// internKey is the canonical map key for interning a Value. Ordinals are
// keyed by their bit pattern with -0 collapsed into +0 (so interning agrees
// with ==) and all NaNs collapsed into one code (so an instance carrying
// NaN still equals itself, matching the canonical Key() rendering).
type internKey struct {
	kind Kind
	bits uint64
	str  string
}

// canonicalNaN is the quiet NaN all NaN payloads intern as.
var canonicalNaN = math.Float64bits(math.NaN())

func makeInternKey(v Value) internKey {
	if v.kind == Ordinal {
		n := v.num
		var bits uint64
		switch {
		case n != n:
			bits = canonicalNaN
		case n == 0:
			bits = 0
		default:
			bits = math.Float64bits(n)
		}
		return internKey{kind: Ordinal, bits: bits}
	}
	return internKey{kind: v.kind, str: v.str}
}

// internTable is the per-space value table. Interning happens on every
// instance construction, which may run concurrently (parallel oracle
// dispatch), so the table is internally synchronized; lookups of
// already-interned values take only a read lock.
type internTable struct {
	mu    sync.RWMutex
	codes []map[internKey]uint32 // per parameter: value -> dense code
	vals  [][]Value              // per parameter: code -> value
	// ranks caches each parameter's rank table (Space.CodeRanks). It is
	// built on first request and dropped whenever the parameter interns a
	// new code, so a cached table always covers every assigned code.
	ranks [][]int32
}

func newInternTable(nParams int) *internTable {
	return &internTable{
		codes: make([]map[internKey]uint32, nParams),
		vals:  make([][]Value, nParams),
		ranks: make([][]int32, nParams),
	}
}

// code returns the dense code for value v of parameter i, interning it on
// first sight.
func (t *internTable) code(i int, v Value) uint32 {
	k := makeInternKey(v)
	t.mu.RLock()
	c, ok := t.codes[i][k]
	t.mu.RUnlock()
	if ok {
		return c
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if c, ok := t.codes[i][k]; ok {
		return c
	}
	if t.codes[i] == nil {
		t.codes[i] = make(map[internKey]uint32)
	}
	c = uint32(len(t.vals[i]))
	t.codes[i][k] = c
	t.vals[i] = append(t.vals[i], v)
	t.ranks[i] = nil
	return c
}

// rankTable returns parameter i's cached rank table, building it on first
// request after the parameter last interned a value.
func (t *internTable) rankTable(i int) []int32 {
	t.mu.RLock()
	r := t.ranks[i]
	t.mu.RUnlock()
	if r != nil {
		return r
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if r := t.ranks[i]; r != nil {
		return r
	}
	vals := t.vals[i]
	byValue := make([]uint32, 0, len(vals))
	r = make([]int32, len(vals))
	for c, v := range vals {
		if v.kind == Ordinal && v.num != v.num {
			r[c] = math.MaxInt32 // the one canonical NaN code
			continue
		}
		byValue = append(byValue, uint32(c))
	}
	// Value order (Value.Less). Distinct codes hold distinct values, so
	// the order is strict and every rank is unique.
	slices.SortFunc(byValue, func(a, b uint32) int {
		va, vb := vals[a], vals[b]
		switch {
		case va.kind != vb.kind:
			return cmp.Compare(va.kind, vb.kind)
		case va.kind == Ordinal:
			return cmp.Compare(va.num, vb.num)
		}
		return strings.Compare(va.str, vb.str)
	})
	for rank, c := range byValue {
		r[c] = int32(rank)
	}
	t.ranks[i] = r
	return r
}

// size returns the number of codes assigned so far for parameter i.
func (t *internTable) size(i int) int {
	t.mu.RLock()
	defer t.mu.RUnlock()
	return len(t.vals[i])
}

// value returns the Value interned as code c of parameter i.
func (t *internTable) value(i int, c uint32) Value {
	t.mu.RLock()
	defer t.mu.RUnlock()
	return t.vals[i][c]
}

// values returns parameter i's code -> value table as assigned so far.
// Interning only appends, so the entries it holds never change; the slice
// is capped so a caller's append cannot reach the table's spare capacity.
func (t *internTable) values(i int) []Value {
	t.mu.RLock()
	defer t.mu.RUnlock()
	v := t.vals[i]
	return v[:len(v):len(v)]
}

// valuesBatch resolves rows of p codes (one per parameter) into dst under a
// single read lock — the log-replay fast path, which would otherwise pay
// two lock round-trips per parameter per record. It reports false when any
// code is unassigned, leaving dst partially written.
func (t *internTable) valuesBatch(codes []uint32, dst []Value, p int) bool {
	t.mu.RLock()
	defer t.mu.RUnlock()
	for r := 0; r+p <= len(codes); r += p {
		for i := 0; i < p; i++ {
			c := codes[r+i]
			if int(c) >= len(t.vals[i]) {
				return false
			}
			dst[r+i] = t.vals[i][c]
		}
	}
	return true
}

// NumCodes returns how many distinct values of parameter i have been
// interned so far (domain values plus any observed out-of-domain values).
// Codes for parameter i are exactly 0..NumCodes(i)-1, so columnar consumers
// (the provenance index, the decision-tree split counter) can size dense
// arrays by it. The count only grows.
func (s *Space) NumCodes(i int) int { return s.intern.size(i) }

// CodeRanks returns parameter i's rank table: entry c is the position of
// code c's value in value order (numeric for ordinals, lexicographic for
// categoricals) among the parameter's interned values, so comparing two
// ranks is comparing the two values. The ordinal NaN ranks math.MaxInt32:
// it satisfies no rank threshold and never serves as one. The tree
// learners (dtree, forest) order and test value codes through it with
// integer compares instead of resolving values under the table lock.
//
// The table is cached and shared, so callers must not modify it. It covers
// every code assigned before the call; once the parameter interns another
// value (AddToDomain, an out-of-domain instance) the next call builds a
// fresh table, and a table obtained earlier stays valid for the codes it
// covers.
func (s *Space) CodeRanks(i int) []int32 { return s.intern.rankTable(i) }

// InternedValue returns the Value that was assigned code c for parameter i.
// It panics if c was never assigned.
func (s *Space) InternedValue(i int, c uint32) Value { return s.intern.value(i, c) }

// InternedValues returns the values interned so far for parameter i,
// indexed by code: entry c is InternedValue(i, c), and the length is
// NumCodes(i) at the time of the call. It takes the table lock once, where
// resolving code by code takes it per code. The slice is shared, so callers
// must not modify it; later interning never changes the entries it holds.
func (s *Space) InternedValues(i int) []Value { return s.intern.values(i) }

// codeOf interns v for parameter i and returns its dense code.
func (s *Space) codeOf(i int, v Value) uint32 { return s.intern.code(i, v) }

// FNV-1a over the little-endian bytes of the code vector.
const (
	fnvOffset64 = 14695981039346656037
	fnvPrime64  = 1099511628211
)

// HashCodes returns the hash an Instance over this code vector carries
// (Instance.Hash): FNV-1a over the little-endian bytes of the codes. Bulk
// loaders (the provenance checkpoint reader) use it to compute instance
// hashes straight from decoded code rows, before any Instance exists.
func HashCodes(codes []uint32) uint64 { return hashCodes(codes) }

func hashCodes(codes []uint32) uint64 {
	h := uint64(fnvOffset64)
	for _, c := range codes {
		h = (h ^ uint64(c&0xff)) * fnvPrime64
		h = (h ^ uint64((c>>8)&0xff)) * fnvPrime64
		h = (h ^ uint64((c>>16)&0xff)) * fnvPrime64
		h = (h ^ uint64(c>>24)) * fnvPrime64
	}
	return h
}

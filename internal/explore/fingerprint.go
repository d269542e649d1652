package explore

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"reflect"
	"sort"
	"strconv"

	"nuconsensus/internal/model"
)

// Key is a 128-bit state fingerprint. Two explored states with equal keys
// are merged, so the encoding behind it must be canonical: independent of
// map iteration order, of pointer addresses, and of any String method that
// might elide fields (consensus.LeadPayload.String, for instance, omits
// the quorum histories the payload carries).
type Key [2]uint64

// String renders the key as 32 hex digits.
func (k Key) String() string { return fmt.Sprintf("%016x%016x", k[0], k[1]) }

// maxEncodeDepth bounds the recursion of encodeCanonical; automaton states
// are trees, so hitting it means a cyclic or degenerate state.
const maxEncodeDepth = 64

// encodeCanonical writes a canonical structural encoding of v to b. It
// walks the value with reflection — unexported fields included — sorting
// map entries by their encoded keys and dereferencing pointers, so the
// encoding is a pure function of the value's content. Nil and empty
// slices/maps encode identically (automata treat them identically), and
// Stringer implementations are deliberately ignored.
func encodeCanonical(b *bytes.Buffer, v reflect.Value, depth int) {
	if depth > maxEncodeDepth {
		panic("explore: state encoding recursion too deep (cyclic state?)")
	}
	if !v.IsValid() {
		b.WriteByte('_')
		return
	}
	switch v.Kind() {
	case reflect.Bool:
		if v.Bool() {
			b.WriteByte('T')
		} else {
			b.WriteByte('F')
		}
	case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
		b.WriteString(strconv.FormatInt(v.Int(), 10))
	case reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64, reflect.Uintptr:
		b.WriteString(strconv.FormatUint(v.Uint(), 10))
	case reflect.Float32, reflect.Float64:
		b.WriteString(strconv.FormatFloat(v.Float(), 'g', -1, 64))
	case reflect.String:
		s := v.String()
		b.WriteString(strconv.Itoa(len(s)))
		b.WriteByte(':')
		b.WriteString(s)
	case reflect.Slice, reflect.Array:
		b.WriteByte('[')
		for i := 0; i < v.Len(); i++ {
			encodeCanonical(b, v.Index(i), depth+1)
			b.WriteByte(',')
		}
		b.WriteByte(']')
	case reflect.Map:
		type entry struct{ k, v string }
		entries := make([]entry, 0, v.Len())
		it := v.MapRange()
		for it.Next() {
			var kb, vb bytes.Buffer
			encodeCanonical(&kb, it.Key(), depth+1)
			encodeCanonical(&vb, it.Value(), depth+1)
			entries = append(entries, entry{kb.String(), vb.String()})
		}
		sort.Slice(entries, func(i, j int) bool { return entries[i].k < entries[j].k })
		b.WriteByte('{')
		for _, e := range entries {
			b.WriteString(e.k)
			b.WriteByte('>')
			b.WriteString(e.v)
			b.WriteByte(',')
		}
		b.WriteByte('}')
	case reflect.Pointer:
		if v.IsNil() {
			b.WriteByte('_')
			return
		}
		b.WriteByte('*')
		encodeCanonical(b, v.Elem(), depth+1)
	case reflect.Interface:
		if v.IsNil() {
			b.WriteByte('_')
			return
		}
		b.WriteByte('<')
		b.WriteString(v.Elem().Type().String())
		b.WriteByte('>')
		encodeCanonical(b, v.Elem(), depth+1)
	case reflect.Struct:
		b.WriteByte('(')
		b.WriteString(v.Type().String())
		b.WriteByte(':')
		for i := 0; i < v.NumField(); i++ {
			encodeCanonical(b, v.Field(i), depth+1)
			b.WriteByte(',')
		}
		b.WriteByte(')')
	default:
		panic(fmt.Sprintf("explore: cannot canonically encode %s in a state", v.Kind()))
	}
}

// canonicalString returns the canonical encoding of an arbitrary value.
func canonicalString(x interface{}) string {
	var b bytes.Buffer
	encodeCanonical(&b, reflect.ValueOf(x), 0)
	return b.String()
}

// hash64 folds a canonical encoding into 64 bits (FNV-1a).
func hash64(s string) uint64 {
	h := fnv.New64a()
	h.Write([]byte(s))
	return h.Sum64()
}

// encCache memoizes message encodings: messages are immutable once sent
// and shared between cloned configurations, so within one frontier level
// each is encoded once no matter how many states its link appears in. The
// engine drops the cache after every level — messages are created per
// executed edge, so an unbounded cache would grow with the whole explored
// edge set rather than with the frontier's working set. The key is the
// message pointer.
type encCache map[*model.Message]string

// messageEncoding canonically encodes a buffered message's content. The
// sender and position are contributed by the link walk in stateKey; the
// per-sender sequence number and global arrival order are deliberately
// excluded — they do not affect future behavior, and arrival order differs
// between commuted interleavings of independent steps.
func (c encCache) messageEncoding(m *model.Message) string {
	if s, ok := c[m]; ok {
		return s
	}
	var b bytes.Buffer
	b.WriteString(fmt.Sprintf("%T", m.Payload))
	b.WriteByte('|')
	encodeCanonical(&b, reflect.ValueOf(m.Payload), 0)
	s := b.String()
	c[m] = s
	return s
}

// stateKey fingerprints a configuration at a given depth. procHashes[p]
// must be hash64(canonicalString(c.States[p])); the caller maintains them
// incrementally (only the stepping process's state changes per step). The
// buffer is hashed per (destination, sender) link in FIFO order, so two
// configurations reached by commuting deliveries on distinct links get the
// same key. Depth is part of the key because failure patterns and
// adversary menus are time-indexed: merging across depths would conflate
// states with different futures.
func stateKey(c *model.Configuration, depth int, procHashes []uint64, enc encCache) Key {
	h := fnv.New128a()
	var scratch [8]byte
	binary.BigEndian.PutUint64(scratch[:], uint64(depth))
	h.Write(scratch[:])
	for _, ph := range procHashes {
		binary.BigEndian.PutUint64(scratch[:], ph)
		h.Write(scratch[:])
	}
	n := len(c.States)
	for to := 0; to < n; to++ {
		pending := c.Buffer.Pending(model.ProcessID(to))
		for from := 0; from < n; from++ {
			empty := true
			for _, m := range pending {
				if int(m.From) != from {
					continue
				}
				if empty {
					fmt.Fprintf(h, "L%d<%d:", to, from)
					empty = false
				}
				h.Write([]byte(enc.messageEncoding(m)))
				h.Write([]byte{','})
			}
			if !empty {
				h.Write([]byte{';'})
			}
		}
	}
	sum := h.Sum(nil)
	return Key{binary.BigEndian.Uint64(sum[:8]), binary.BigEndian.Uint64(sum[8:16])}
}

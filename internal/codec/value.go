package codec

import (
	"errors"
	"fmt"
	"reflect"
	"sort"
	"sync"
)

// Self-describing value encoding. Every value starts with a kind tag: the
// closed set of scalar/slice/map builtins the benches produce encode
// directly, and registered named types (the workload value structs) encode
// as tag + name + type-specific payload. Unlike gob there is no reflective
// type description on the wire — the name resolves against a process-local
// registry populated by package init functions, which is sound because the
// store only ever decodes values this binary encoded.

// Kind tags. The zero tag is reserved so a zeroed buffer never decodes.
const (
	tagString uint64 = iota + 1
	tagInt
	tagInt64
	tagFloat64
	tagBool
	tagBytes
	tagStrings
	tagInts
	tagFloats
	tagStringFloatMap
	tagNamed
)

// ErrUnregistered reports a value whose dynamic type has no binary encoder.
// The store does not materialize such values.
var ErrUnregistered = errors.New("codec: unregistered value type")

// EncodeFunc writes one value's payload (after the tag and name).
type EncodeFunc func(w *Writer, v any) error

// DecodeFunc reads back what EncodeFunc wrote.
type DecodeFunc func(r *Reader) (any, error)

type valueCodec struct {
	name string
	enc  EncodeFunc
	dec  DecodeFunc
}

var (
	valueMu     sync.RWMutex
	valueByType = map[reflect.Type]*valueCodec{}
	valueByName = map[string]*valueCodec{}
)

// RegisterValue binds a named binary encoder/decoder pair to the dynamic
// type of prototype. Registration is idempotent for an identical
// (type, name) pair and panics on conflicts, mirroring gob.Register.
func RegisterValue(prototype any, name string, enc EncodeFunc, dec DecodeFunc) {
	t := reflect.TypeOf(prototype)
	if t == nil {
		panic("codec: RegisterValue with nil prototype")
	}
	valueMu.Lock()
	defer valueMu.Unlock()
	if prev, ok := valueByType[t]; ok {
		if prev.name == name {
			return
		}
		panic(fmt.Sprintf("codec: type %v already registered as %q", t, prev.name))
	}
	if _, ok := valueByName[name]; ok {
		panic(fmt.Sprintf("codec: name %q already registered", name))
	}
	vc := &valueCodec{name: name, enc: enc, dec: dec}
	valueByType[t] = vc
	valueByName[name] = vc
}

// RegisteredNames returns the sorted names of every registered named value
// codec — the exhaustiveness oracle for the round-trip equivalence tests.
func RegisteredNames() []string {
	valueMu.RLock()
	names := make([]string, 0, len(valueByName))
	for n := range valueByName {
		names = append(names, n)
	}
	valueMu.RUnlock()
	sort.Strings(names)
	return names
}

// EncodeValue appends a self-describing encoding of v. Returns
// ErrUnregistered (wrapping the type) when v has no binary codec; the
// writer is unchanged in that case.
func EncodeValue(w *Writer, v any) error {
	switch x := v.(type) {
	case string:
		w.Uvarint(tagString)
		w.String(x)
	case int:
		w.Uvarint(tagInt)
		w.Int(x)
	case int64:
		w.Uvarint(tagInt64)
		w.Int(int(x))
	case float64:
		w.Uvarint(tagFloat64)
		w.Float64(x)
	case bool:
		w.Uvarint(tagBool)
		if x {
			w.Uvarint(1)
		} else {
			w.Uvarint(0)
		}
	case []byte:
		w.Uvarint(tagBytes)
		w.ByteSlice(x)
	case []string:
		w.Uvarint(tagStrings)
		w.Len(len(x))
		for _, s := range x {
			w.String(s)
		}
	case []int:
		w.Uvarint(tagInts)
		w.Len(len(x))
		for _, i := range x {
			w.Int(i)
		}
	case []float64:
		w.Uvarint(tagFloats)
		w.Len(len(x))
		for _, f := range x {
			w.Float64(f)
		}
	case map[string]float64:
		w.Uvarint(tagStringFloatMap)
		encodeSortedStringFloatMap(w, x)
	default:
		valueMu.RLock()
		vc := valueByType[reflect.TypeOf(v)]
		valueMu.RUnlock()
		if vc == nil {
			return fmt.Errorf("%w: %T", ErrUnregistered, v)
		}
		w.Uvarint(tagNamed)
		w.String(vc.name)
		return vc.enc(w, v)
	}
	return nil
}

// DecodeValue reads one value written by EncodeValue. Decoded values never
// alias the input buffer (strings and byte slices copy), so callers may
// reuse the buffer afterwards.
func DecodeValue(r *Reader) (any, error) {
	tag, err := r.Uvarint()
	if err != nil {
		return nil, err
	}
	switch tag {
	case tagString:
		return r.String()
	case tagInt:
		return r.Int()
	case tagInt64:
		x, err := r.Int()
		return int64(x), err
	case tagFloat64:
		return r.Float64()
	case tagBool:
		b, err := r.Uvarint()
		if err != nil {
			return nil, err
		}
		switch b {
		case 0:
			return false, nil
		case 1:
			return true, nil
		default:
			return nil, fmt.Errorf("codec: bad bool %d", b)
		}
	case tagBytes:
		return r.ByteSlice()
	case tagStrings:
		n, err := r.Len()
		if err != nil {
			return nil, err
		}
		out := make([]string, n)
		for i := range out {
			if out[i], err = r.String(); err != nil {
				return nil, err
			}
		}
		return out, nil
	case tagInts:
		n, err := r.Len()
		if err != nil {
			return nil, err
		}
		out := make([]int, n)
		for i := range out {
			if out[i], err = r.Int(); err != nil {
				return nil, err
			}
		}
		return out, nil
	case tagFloats:
		n, err := r.Len()
		if err != nil {
			return nil, err
		}
		out := make([]float64, n)
		for i := range out {
			if out[i], err = r.Float64(); err != nil {
				return nil, err
			}
		}
		return out, nil
	case tagStringFloatMap:
		return decodeStringFloatMap(r)
	case tagNamed:
		name, err := r.String()
		if err != nil {
			return nil, err
		}
		valueMu.RLock()
		vc := valueByName[name]
		valueMu.RUnlock()
		if vc == nil {
			return nil, fmt.Errorf("%w: no decoder named %q", ErrUnregistered, name)
		}
		return vc.dec(r)
	default:
		return nil, fmt.Errorf("codec: bad value tag %d", tag)
	}
}

// encodeSortedStringFloatMap writes map entries in sorted key order so
// re-encoding a decoded value is byte-stable (Go map iteration is not).
func encodeSortedStringFloatMap(w *Writer, m map[string]float64) {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	w.Len(len(keys))
	for _, k := range keys {
		w.String(k)
		w.Float64(m[k])
	}
}

func decodeStringFloatMap(r *Reader) (map[string]float64, error) {
	n, err := r.Len()
	if err != nil {
		return nil, err
	}
	m := make(map[string]float64, n)
	for i := 0; i < n; i++ {
		k, err := r.String()
		if err != nil {
			return nil, err
		}
		v, err := r.Float64()
		if err != nil {
			return nil, err
		}
		m[k] = v
	}
	return m, nil
}

// ByteSlice appends a length-prefixed byte slice.
func (w *Writer) ByteSlice(b []byte) {
	w.Len(len(b))
	w.buf = append(w.buf, b...)
}

// ByteSlice reads a length-prefixed byte slice, copying out of the buffer
// (the buffer may be a memory mapping released after decode).
func (r *Reader) ByteSlice() ([]byte, error) {
	n, err := r.Len()
	if err != nil {
		return nil, err
	}
	if r.off+n > len(r.buf) {
		return nil, fmt.Errorf("codec: truncated byte slice (%d bytes) at offset %d", n, r.off)
	}
	out := make([]byte, n)
	copy(out, r.buf[r.off:r.off+n])
	r.off += n
	return out, nil
}

package netlist

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"hash"
	"math"
	"reflect"

	"selectivemt/internal/geom"
)

// Fingerprint returns a content hash of the design: ports, nets with
// their endpoint order, instances with cell bindings and placement, and
// the core region. Two designs with equal fingerprints are analyzed
// identically by the deterministic engines (simulation, STA, extraction),
// so the hash is a safe memoization key for per-design results — in
// particular, Clone preserves it. The library is identified by pointer:
// fingerprints are only comparable within one process.
//
// The hash is SHA-256 over a length-prefixed binary encoding: every name
// as its byte length and bytes, every coordinate (port and instance
// positions, Core) as its exact float64 bits, so a move of any size —
// sub-nanometre included — changes it, and each net endpoint as instance
// name plus pin or as port name. The encoding streams through one small
// reused buffer, so a call allocates a constant handful of objects
// whatever the design size. Nothing persists fingerprints; the format
// may change between versions.
//
// The hash reflects the design at call time; it is recomputed on every
// call, so mutate-then-refingerprint is safe.
func (d *Design) Fingerprint() string {
	w := fpWriter{h: sha256.New(), buf: make([]byte, 0, fpBufSize)}
	w.str(d.Name)
	w.u64(uint64(reflect.ValueOf(d.Lib).Pointer()))
	w.point(d.Core.Lo)
	w.point(d.Core.Hi)
	for _, p := range d.ports {
		w.tag(fpPort)
		w.str(p.Name)
		w.u64(uint64(p.Dir))
		w.flags(p.IsClock, p.Placed)
		w.point(p.Pos)
		w.str(p.Net.Name)
	}
	for _, inst := range d.insts {
		if inst == nil {
			continue
		}
		w.tag(fpInst)
		w.str(inst.Name)
		w.str(inst.Cell.Name)
		w.flags(inst.Placed, inst.Fixed)
		w.point(inst.Pos)
	}
	// Endpoint order matters: extraction and timing walk sinks in stored
	// order, so two designs that differ only there are not interchangeable.
	for _, n := range d.nets {
		if n == nil {
			continue
		}
		w.tag(fpNet)
		w.str(n.Name)
		w.flags(n.IsClock, n.IsMTE, n.IsVGND)
		w.endpoint(n.Driver)
		w.u64(uint64(len(n.Sinks)))
		for _, s := range n.Sinks {
			w.endpoint(s)
		}
	}
	return w.sum()
}

// fpBufSize is the fingerprint's staging buffer: large enough that the
// hash sees few big writes, small enough to stay in L1.
const fpBufSize = 4096

// Record and endpoint tags of the fingerprint encoding.
const (
	fpPort byte = iota + 1
	fpInst
	fpNet
	fpNoPin
	fpInstPin
	fpPortPin
)

// fpWriter stages the fingerprint encoding in buf and feeds it to the
// hash whenever the next field might not fit.
type fpWriter struct {
	h   hash.Hash
	buf []byte
}

// reserve flushes buf to the hash unless n more bytes fit.
func (w *fpWriter) reserve(n int) {
	if cap(w.buf)-len(w.buf) < n {
		w.h.Write(w.buf)
		w.buf = w.buf[:0]
	}
}

func (w *fpWriter) tag(t byte) {
	w.reserve(1)
	w.buf = append(w.buf, t)
}

func (w *fpWriter) u64(v uint64) {
	w.reserve(binary.MaxVarintLen64)
	w.buf = binary.AppendUvarint(w.buf, v)
}

// str writes the length, then the bytes in buffer-sized pieces so a name
// of any length streams without growing buf.
func (w *fpWriter) str(s string) {
	w.u64(uint64(len(s)))
	for len(s) > 0 {
		w.reserve(1)
		n := copy(w.buf[len(w.buf):cap(w.buf)], s)
		w.buf = w.buf[:len(w.buf)+n]
		s = s[n:]
	}
}

// flags packs up to eight booleans into one byte.
func (w *fpWriter) flags(vs ...bool) {
	var f byte
	for i, v := range vs {
		if v {
			f |= 1 << i
		}
	}
	w.tag(f)
}

func (w *fpWriter) point(p geom.Point) {
	w.reserve(16)
	w.buf = binary.LittleEndian.AppendUint64(w.buf, math.Float64bits(p.X))
	w.buf = binary.LittleEndian.AppendUint64(w.buf, math.Float64bits(p.Y))
}

func (w *fpWriter) endpoint(r PinRef) {
	switch {
	case r.Inst != nil:
		w.tag(fpInstPin)
		w.str(r.Inst.Name)
		w.str(r.Pin)
	case r.Port != nil:
		w.tag(fpPortPin)
		w.str(r.Port.Name)
	default:
		w.tag(fpNoPin)
	}
}

// sum flushes the encoding and returns the hex digest, reusing buf for
// the digest bytes and their hex form.
func (w *fpWriter) sum() string {
	w.h.Write(w.buf)
	digest := w.h.Sum(w.buf[:0])
	hexed := w.buf[sha256.Size : sha256.Size+hex.EncodedLen(sha256.Size)]
	hex.Encode(hexed, digest)
	return string(hexed)
}

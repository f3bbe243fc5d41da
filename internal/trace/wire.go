package trace

import (
	"encoding/binary"
	"fmt"
)

// This file is the serialization half of a capture: a Recording's
// event stream framed as the columnar codec's
// self-contained chunks, so the on-disk trace store (internal/
// tracestore) is mostly framing plus an index. The wire layout is
// canonical — chunk boundaries fall every RecordChunkEvents events
// and the encoder is deterministic — so the same event stream always
// marshals to the same bytes, which is what lets the store address
// traces by content digest.
//
// Unmarshal is the only codec entry point that consumes bytes from
// outside the process, so unlike the in-memory decoder (which panics
// on impossible states, since every chunk it sees was built by
// encodeChunk) it validates everything and returns errors: corrupt or
// truncated input must never panic and never strand a borrowed
// buffer, which FuzzStoreLoad pins through the store.

// wireMaxChunks bounds the chunk count a wire header may claim
// (2^20 chunks = 8 Gi events), and wireMaxChunkBytes bounds one
// encoded chunk (64 B/event is ~15x the measured encoding; the codec
// cannot legally exceed ~46 B/event). Both exist so a corrupt length
// cannot drive a huge allocation before validation catches it.
const (
	wireMaxChunks     = 1 << 20
	wireMaxChunkBytes = RecordChunkEvents * 64
)

// MarshalWire appends the recording's framed wire form to dst and
// returns it: uvarint event count, uvarint chunk count, then each
// chunk as uvarint length + encoded bytes. The staging tail is
// encoded on the fly, so the wire form is the columnar layout
// throughout.
func (r *Recording) MarshalWire(dst []byte) []byte {
	dst = binary.AppendUvarint(dst, uint64(r.n))
	appendEnc := func(dst []byte, c []byte) []byte {
		dst = binary.AppendUvarint(dst, uint64(len(c)))
		return append(dst, c...)
	}
	nChunks := len(r.enc)
	if len(r.tail) > 0 {
		nChunks++
	}
	dst = binary.AppendUvarint(dst, uint64(nChunks))
	for _, c := range r.enc {
		dst = appendEnc(dst, c)
	}
	if len(r.tail) > 0 {
		buf := encodeChunk(getEncBuf(), r.tail)
		dst = appendEnc(dst, buf)
		putEncBuf(buf)
	}
	return dst
}

// wireUvarint reads one varint, erroring on truncation or overflow.
func wireUvarint(data []byte) (uint64, []byte, error) {
	v, n := binary.Uvarint(data)
	if n <= 0 {
		return 0, nil, fmt.Errorf("trace: truncated or invalid varint in wire header")
	}
	return v, data[n:], nil
}

// validateChunk fully decodes one encoded chunk through a borrowed
// block, converting the in-memory decoder's corruption panics into an
// error, and returns the event count. It also rejects chunks whose
// columns are not fully consumed: the wire form is canonical, so
// trailing slack means the bytes did not come from encodeChunk.
func validateChunk(c []byte) (n int, err error) {
	defer func() {
		if p := recover(); p != nil {
			n, err = 0, fmt.Errorf("trace: corrupt encoded chunk: %v", p)
		}
	}()
	var d chunkDecoder
	d.init(c)
	if d.n > RecordChunkEvents {
		return 0, fmt.Errorf("trace: chunk claims %d events, max %d", d.n, RecordChunkEvents)
	}
	block := getBlock()
	defer putBlock(block)
	for {
		k := d.next(block)
		if k == 0 {
			break
		}
		n += k
	}
	if len(d.addr) != 0 || len(d.aux) != 0 || len(d.size) != 0 || len(d.ab) != 0 {
		return 0, fmt.Errorf("trace: encoded chunk has unconsumed column bytes")
	}
	return n, nil
}

// UnmarshalWire parses a MarshalWire payload into a fresh compressed
// Recording whose chunk buffers come from the shared free lists (the
// same arenas capture uses). Corrupt or truncated input returns an
// error with every borrowed buffer returned; the input must be
// canonical (full chunks except the last), so load/store round trips
// are byte-identical.
func UnmarshalWire(data []byte) (*Recording, error) {
	total64, data, err := wireUvarint(data)
	if err != nil {
		return nil, err
	}
	nChunks64, data, err := wireUvarint(data)
	if err != nil {
		return nil, err
	}
	if nChunks64 > wireMaxChunks {
		return nil, fmt.Errorf("trace: wire claims %d chunks, max %d", nChunks64, wireMaxChunks)
	}
	if total64 > nChunks64*RecordChunkEvents {
		return nil, fmt.Errorf("trace: wire claims %d events in %d chunks", total64, nChunks64)
	}
	nChunks := int(nChunks64)
	r := &Recording{}
	fail := func(err error) (*Recording, error) {
		r.Release()
		return nil, err
	}
	seen := 0
	for i := 0; i < nChunks; i++ {
		var clen uint64
		clen, data, err = wireUvarint(data)
		if err != nil {
			return fail(err)
		}
		if clen > wireMaxChunkBytes {
			return fail(fmt.Errorf("trace: chunk %d claims %d bytes, max %d", i, clen, wireMaxChunkBytes))
		}
		if uint64(len(data)) < clen {
			return fail(fmt.Errorf("trace: chunk %d truncated: %d of %d bytes", i, len(data), clen))
		}
		buf := append(getEncBuf(), data[:clen]...)
		data = data[clen:]
		n, err := validateChunk(buf)
		if err != nil {
			putEncBuf(buf)
			return fail(err)
		}
		if i < nChunks-1 && n != RecordChunkEvents {
			putEncBuf(buf)
			return fail(fmt.Errorf("trace: non-final chunk %d holds %d events, want %d", i, n, RecordChunkEvents))
		}
		if n == 0 {
			putEncBuf(buf)
			return fail(fmt.Errorf("trace: empty chunk %d", i))
		}
		r.enc = append(r.enc, buf)
		seen += n
	}
	if len(data) != 0 {
		return fail(fmt.Errorf("trace: %d trailing bytes after wire payload", len(data)))
	}
	if seen != int(total64) {
		return fail(fmt.Errorf("trace: wire header claims %d events, chunks hold %d", total64, seen))
	}
	r.n = seen
	return r, nil
}

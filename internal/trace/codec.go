package trace

import (
	"encoding/binary"
	"fmt"
	"sync"
)

// This file is the columnar codec behind Recording: the struct-of-
// arrays chunk layout that breaks the raw-arena replay ceiling. A raw
// recorded event costs 32 bytes, and PR3 measured that past ~2Mi
// events the arena thrashes DRAM badly enough that replay loses to
// re-executing the engine — exactly the memory-hierarchy bottleneck
// the paper's stall taxonomy predicts, turned on the simulator itself.
// But the streams are extremely redundant (the PR4 drain measured
// same-site branch runs at 37% of events with average length 4, plus
// same-line load runs), so a full chunk compresses the way a column
// store compresses a sorted run:
//
//   - kinds and branch outcomes bit-pack to one nibble per event
//     (3 kind bits + the taken bit);
//   - addresses delta-encode against the previous event of the same
//     kind and the zigzagged delta varint-encodes, so a sequential
//     scan's strided loads, a loop branch's repeated site and a
//     routine's repeated entry point all cost one byte;
//   - sizes, branch targets and the secondary counts (instrs/uops,
//     loads/stores, stall-cycle float bits) delta-encode the same way
//     against per-kind predictors, so per-site constants cost one
//     byte after their first appearance.
//
// Every column keeps one predictor per event kind, reset at each
// chunk boundary, so chunks are self-contained and independently
// decodable. Decode never materializes the event array: Drain decodes
// one host-L1-resident block at a time (DecodeBlockEvents events)
// straight into ProcessBatch, so decompression rides the existing
// single-pass drain exactly the way the gang fan-out does. The codec
// is lossless for every event the emitters construct (fields unused
// by a kind are zero by construction — the Buffer and Recorder
// constructors are the only writers), which FuzzCodecRoundTrip pins
// on arbitrary canonical streams including the recorded TPC-C seed.

// EventBytes is the in-memory size of one raw Event (the struct is
// packed to half a host cache line); raw arena footprints and
// compression ratios are quoted against it.
const EventBytes = 32

// DecodeBlockEvents is the fused-decode block size: 512 events x 32
// bytes = 16 KiB, resident in the host L1D while ProcessBatch drains
// the block, and below the gang drain's 32 KiB sub-batch so a
// MultiPipeline never re-splits a decoded block.
const DecodeBlockEvents = 512

// codecFooterLen is the fixed-width chunk trailer: six little-endian
// uint32s — event count and the five column-stream lengths — parsed
// from the end of the chunk so streams are written in one forward
// pass with no length back-patching.
const codecFooterLen = 24

// Which kinds carry which columns. EvRecordProcessed is kind-only;
// EvResourceStall rides its three stall floats in Addr/Aux/A/B as
// bit patterns (see ResourceStallEvent), so it uses those columns.
// The decode hot loop reads the flags as one table lookup per event.
const (
	colAddr = 1 << iota
	colAux
	colSize
	colAB
)

var kindCols = [8]uint8{
	EvFetchBlock:      colAddr | colSize | colAB,
	EvLoad:            colAddr | colSize,
	EvStore:           colAddr | colSize,
	EvBranch:          colAddr | colAux,
	EvDataBurst:       colAddr | colSize | colAB,
	EvResourceStall:   colAddr | colAux | colAB,
	EvRecordProcessed: 0,
}

func kindHasAddr(k EventKind) bool { return kindCols[k&7]&colAddr != 0 }
func kindHasAux(k EventKind) bool  { return kindCols[k&7]&colAux != 0 }
func kindHasSize(k EventKind) bool { return kindCols[k&7]&colSize != 0 }
func kindHasAB(k EventKind) bool   { return kindCols[k&7]&colAB != 0 }

// zigzag folds a signed delta into an unsigned varint-friendly value:
// 0, -1, 1, -2, ... -> 0, 1, 2, 3, ...
func zigzag(d int64) uint64   { return uint64(d)<<1 ^ uint64(d>>63) }
func unzigzag(u uint64) int64 { return int64(u>>1) ^ -int64(u&1) }

// encodeChunk appends the columnar encoding of events to dst and
// returns it. The layout is five back-to-back streams — packed
// kind+taken nibbles, then the addr, aux, size and A/B delta-varint
// columns — followed by the fixed footer. Encoding makes one pass per
// column over the (L2-resident) staging chunk.
func encodeChunk(dst []byte, events []Event) []byte {
	// Kind + taken nibbles, two events per byte, low nibble first.
	ktStart := len(dst)
	var half byte
	for i := range events {
		nib := byte(events[i].Kind) & 7
		if events[i].Taken {
			nib |= 8
		}
		if i&1 == 0 {
			half = nib
		} else {
			dst = append(dst, half|nib<<4)
		}
	}
	if len(events)&1 == 1 {
		dst = append(dst, half)
	}
	ktLen := len(dst) - ktStart

	// Address column: zigzag varint delta vs the previous event of the
	// same kind (per-kind predictors make interleaved streams — loads
	// walking a page while a loop branch retires — each self-similar).
	addrStart := len(dst)
	var lastAddr [8]uint64
	for i := range events {
		k := events[i].Kind
		if kindHasAddr(k) {
			dst = binary.AppendUvarint(dst, zigzag(int64(events[i].Addr-lastAddr[k])))
			lastAddr[k] = events[i].Addr
		}
	}
	addrLen := len(dst) - addrStart

	auxStart := len(dst)
	var lastAux [8]uint64
	for i := range events {
		k := events[i].Kind
		if kindHasAux(k) {
			dst = binary.AppendUvarint(dst, zigzag(int64(events[i].Aux-lastAux[k])))
			lastAux[k] = events[i].Aux
		}
	}
	auxLen := len(dst) - auxStart

	sizeStart := len(dst)
	var lastSize [8]uint32
	for i := range events {
		k := events[i].Kind
		if kindHasSize(k) {
			dst = binary.AppendUvarint(dst, zigzag(int64(int32(events[i].Size-lastSize[k]))))
			lastSize[k] = events[i].Size
		}
	}
	sizeLen := len(dst) - sizeStart

	abStart := len(dst)
	var lastA, lastB [8]uint32
	for i := range events {
		k := events[i].Kind
		if kindHasAB(k) {
			dst = binary.AppendUvarint(dst, zigzag(int64(int32(events[i].A-lastA[k]))))
			dst = binary.AppendUvarint(dst, zigzag(int64(int32(events[i].B-lastB[k]))))
			lastA[k], lastB[k] = events[i].A, events[i].B
		}
	}
	abLen := len(dst) - abStart

	var foot [codecFooterLen]byte
	binary.LittleEndian.PutUint32(foot[0:], uint32(len(events)))
	binary.LittleEndian.PutUint32(foot[4:], uint32(ktLen))
	binary.LittleEndian.PutUint32(foot[8:], uint32(addrLen))
	binary.LittleEndian.PutUint32(foot[12:], uint32(auxLen))
	binary.LittleEndian.PutUint32(foot[16:], uint32(sizeLen))
	binary.LittleEndian.PutUint32(foot[20:], uint32(abLen))
	return append(dst, foot[:]...)
}

// chunkDecoder streams events back out of one encoded chunk. It is a
// value type reset per chunk; next fills a caller block so the decode
// fuses into the drain without ever building the whole event array.
type chunkDecoder struct {
	n, i                int // events total / consumed
	kt, addr, aux, size []byte
	ab                  []byte
	lastAddr, lastAux   [8]uint64
	lastSize            [8]uint32
	lastA, lastB        [8]uint32
}

// init points the decoder at an encoded chunk.
func (d *chunkDecoder) init(c []byte) {
	if len(c) < codecFooterLen {
		panic(fmt.Sprintf("trace: corrupt encoded chunk (%d bytes)", len(c)))
	}
	foot := c[len(c)-codecFooterLen:]
	n := int(binary.LittleEndian.Uint32(foot[0:]))
	ktLen := int(binary.LittleEndian.Uint32(foot[4:]))
	addrLen := int(binary.LittleEndian.Uint32(foot[8:]))
	auxLen := int(binary.LittleEndian.Uint32(foot[12:]))
	sizeLen := int(binary.LittleEndian.Uint32(foot[16:]))
	abLen := int(binary.LittleEndian.Uint32(foot[20:]))
	if ktLen+addrLen+auxLen+sizeLen+abLen+codecFooterLen != len(c) || ktLen != (n+1)/2 {
		panic("trace: corrupt encoded chunk layout")
	}
	off := 0
	d.kt, off = c[off:off+ktLen], off+ktLen
	d.addr, off = c[off:off+addrLen], off+addrLen
	d.aux, off = c[off:off+auxLen], off+auxLen
	d.size, off = c[off:off+sizeLen], off+sizeLen
	d.ab = c[off : off+abLen]
	d.n, d.i = n, 0
	d.lastAddr = [8]uint64{}
	d.lastAux = [8]uint64{}
	d.lastSize = [8]uint32{}
	d.lastA = [8]uint32{}
	d.lastB = [8]uint32{}
}

// uvarint reads one varint off a column cursor. Deltas against the
// per-kind predictors are overwhelmingly single-byte (repeated sites,
// strided scans), so that case short-circuits the generic loop.
func uvarint(col *[]byte) uint64 {
	c := *col
	if len(c) > 0 && c[0] < 0x80 {
		*col = c[1:]
		return uint64(c[0])
	}
	v, n := binary.Uvarint(c)
	if n <= 0 {
		panic("trace: corrupt varint in encoded chunk")
	}
	*col = c[n:]
	return v
}

// next decodes up to len(dst) events into dst and returns how many it
// produced; zero means the chunk is exhausted. Each decoded field
// advances the matching per-kind predictor, mirroring encodeChunk.
func (d *chunkDecoder) next(dst []Event) int {
	m := len(dst)
	if rem := d.n - d.i; rem < m {
		m = rem
	}
	for j := 0; j < m; j++ {
		nib := d.kt[d.i>>1] >> ((d.i & 1) * 4) & 0xF
		d.i++
		k := EventKind(nib & 7)
		ev := Event{Kind: k, Taken: nib&8 != 0}
		cols := kindCols[k]
		if cols&colAddr != 0 {
			d.lastAddr[k] += uint64(unzigzag(uvarint(&d.addr)))
			ev.Addr = d.lastAddr[k]
		}
		if cols&colAux != 0 {
			d.lastAux[k] += uint64(unzigzag(uvarint(&d.aux)))
			ev.Aux = d.lastAux[k]
		}
		if cols&colSize != 0 {
			d.lastSize[k] += uint32(unzigzag(uvarint(&d.size)))
			ev.Size = d.lastSize[k]
		}
		if cols&colAB != 0 {
			d.lastA[k] += uint32(unzigzag(uvarint(&d.ab)))
			d.lastB[k] += uint32(unzigzag(uvarint(&d.ab)))
			ev.A, ev.B = d.lastA[k], d.lastB[k]
		}
		dst[j] = ev
	}
	return m
}

// encFree recycles encoded chunk buffers, for the same reason
// chunkFree recycles raw staging chunks: a sync.Pool is drained every
// GC cycle and re-faulting the arena in from the kernel costs more
// than the copy it saves. Compressed chunks are a few KiB to a few
// tens of KiB, so the steady-state footprint is the high-water mark
// of live recordings.
var encFree struct {
	mu   sync.Mutex
	bufs [][]byte
}

func getEncBuf() []byte {
	liveEncBufs.Add(1)
	encFree.mu.Lock()
	n := len(encFree.bufs)
	if n == 0 {
		encFree.mu.Unlock()
		return make([]byte, 0, RecordChunkEvents) // ~8x headroom at 4 B/event
	}
	b := encFree.bufs[n-1]
	encFree.bufs = encFree.bufs[:n-1]
	encFree.mu.Unlock()
	return b[:0]
}

func putEncBuf(b []byte) {
	if cap(b) == 0 {
		return
	}
	liveEncBufs.Add(-1)
	encFree.mu.Lock()
	encFree.bufs = append(encFree.bufs, b[:0])
	encFree.mu.Unlock()
}

// blockFree recycles the fused-decode blocks Drain and Replay borrow:
// one 16 KiB block per drain in flight, returned on exit.
var blockFree struct {
	mu     sync.Mutex
	blocks [][]Event
}

func getBlock() []Event {
	liveBlocks.Add(1)
	blockFree.mu.Lock()
	n := len(blockFree.blocks)
	if n == 0 {
		blockFree.mu.Unlock()
		return make([]Event, DecodeBlockEvents)
	}
	b := blockFree.blocks[n-1]
	blockFree.blocks = blockFree.blocks[:n-1]
	blockFree.mu.Unlock()
	return b
}

func putBlock(b []Event) {
	if cap(b) < DecodeBlockEvents {
		return
	}
	liveBlocks.Add(-1)
	blockFree.mu.Lock()
	blockFree.blocks = append(blockFree.blocks, b[:DecodeBlockEvents])
	blockFree.mu.Unlock()
}

// recCursor walks a recording event by event, decoding compressed
// chunks through a borrowed block; Equal uses a pair of them to
// compare recordings without materializing either stream. close
// returns the borrowed block to the free list.
type recCursor struct {
	r     *Recording
	chunk int // next chunk index: encoded chunks, then the tail
	dec   chunkDecoder
	block []Event
	buf   []Event // current decoded block or tail view
	pos   int
	inDec bool
}

func newRecCursor(r *Recording) *recCursor {
	return &recCursor{r: r}
}

func (c *recCursor) close() {
	if c.block != nil {
		putBlock(c.block)
		c.block = nil
	}
}

// next returns the next event and false at end of stream.
func (c *recCursor) next() (Event, bool) {
	for {
		if c.pos < len(c.buf) {
			ev := c.buf[c.pos]
			c.pos++
			return ev, true
		}
		if c.inDec {
			if c.block == nil {
				c.block = getBlock()
			}
			if n := c.dec.next(c.block); n > 0 {
				c.buf, c.pos = c.block[:n], 0
				continue
			}
			c.inDec = false
		}
		if c.chunk < len(c.r.enc) {
			c.dec.init(c.r.enc[c.chunk])
			c.chunk++
			c.inDec = true
			continue
		}
		if c.chunk == len(c.r.enc) {
			c.chunk++
			c.buf, c.pos = c.r.tail, 0
			continue
		}
		return Event{}, false
	}
}

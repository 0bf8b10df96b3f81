package trace

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"

	"repro/internal/isa"
)

// Binary trace format: a 16-byte header (magic, version, uop count) followed
// by fixed-width little-endian records. Traces are deterministic re-runs of
// the generator, but serialized traces let experiments pin a workload across
// generator changes and let external tools consume the streams.
const (
	traceMagic   = 0x454D4354 // "EMCT"
	traceVersion = 1
	recordBytes  = 8 + 8 + 1 + 1 + 1 + 1 + 8 + 8 + 8 + 1 // 45
)

// WriteTrace serializes uops to w.
func WriteTrace(w io.Writer, uops []isa.Uop) error {
	bw := bufio.NewWriter(w)
	var hdr [16]byte
	binary.LittleEndian.PutUint32(hdr[0:], traceMagic)
	binary.LittleEndian.PutUint32(hdr[4:], traceVersion)
	binary.LittleEndian.PutUint64(hdr[8:], uint64(len(uops)))
	if _, err := bw.Write(hdr[:]); err != nil {
		return err
	}
	var rec [recordBytes]byte
	for i := range uops {
		u := &uops[i]
		binary.LittleEndian.PutUint64(rec[0:], u.Seq)
		binary.LittleEndian.PutUint64(rec[8:], u.PC)
		rec[16] = byte(u.Op)
		rec[17] = byte(u.Src1)
		rec[18] = byte(u.Src2)
		rec[19] = byte(u.Dst)
		binary.LittleEndian.PutUint64(rec[20:], uint64(u.Imm))
		binary.LittleEndian.PutUint64(rec[28:], u.Addr)
		binary.LittleEndian.PutUint64(rec[36:], u.Value)
		var flags byte
		if u.Taken {
			flags |= 1
		}
		if u.Mispredicted {
			flags |= 2
		}
		rec[44] = flags
		if _, err := bw.Write(rec[:]); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// ReadTrace deserializes a trace written by WriteTrace.
func ReadTrace(r io.Reader) ([]isa.Uop, error) {
	br := bufio.NewReader(r)
	var hdr [16]byte
	if _, err := io.ReadFull(br, hdr[:]); err != nil {
		return nil, fmt.Errorf("trace: header: %w", err)
	}
	if binary.LittleEndian.Uint32(hdr[0:]) != traceMagic {
		return nil, fmt.Errorf("trace: bad magic")
	}
	if v := binary.LittleEndian.Uint32(hdr[4:]); v != traceVersion {
		return nil, fmt.Errorf("trace: unsupported version %d", v)
	}
	n := binary.LittleEndian.Uint64(hdr[8:])
	const maxTrace = 1 << 30
	if n > maxTrace {
		return nil, fmt.Errorf("trace: implausible uop count %d", n)
	}
	// The header's count is untrusted: preallocate at most maxPrealloc uops
	// and let a longer trace grow as its records actually arrive.
	const maxPrealloc = 1 << 16
	uops := make([]isa.Uop, 0, min(n, maxPrealloc))
	var rec [recordBytes]byte
	for i := uint64(0); i < n; i++ {
		if _, err := io.ReadFull(br, rec[:]); err != nil {
			return nil, fmt.Errorf("trace: record %d: %w", i, err)
		}
		u := isa.Uop{
			Seq:   binary.LittleEndian.Uint64(rec[0:]),
			PC:    binary.LittleEndian.Uint64(rec[8:]),
			Op:    isa.Op(rec[16]),
			Src1:  isa.Reg(rec[17]),
			Src2:  isa.Reg(rec[18]),
			Dst:   isa.Reg(rec[19]),
			Imm:   int64(binary.LittleEndian.Uint64(rec[20:])),
			Addr:  binary.LittleEndian.Uint64(rec[28:]),
			Value: binary.LittleEndian.Uint64(rec[36:]),
		}
		u.Taken = rec[44]&1 != 0
		u.Mispredicted = rec[44]&2 != 0
		uops = append(uops, u)
	}
	return uops, nil
}

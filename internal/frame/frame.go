// Package frame is the one on-disk and wire frame of the repo's checksummed
// JSON files: the durable result cache's EMCR records (internal/service) and
// the flight recorder's EMFR dumps (internal/obs/span). A frame is a 4-byte
// magic + u16 version + u32 payload length + JSON payload + u32
// CRC32(payload), all little-endian.
package frame

import (
	"encoding/binary"
	"encoding/json"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
)

// head is the frame header's size after the magic: version + length.
const head = 6

// Encode marshals v to JSON and frames it under magic and version.
func Encode(magic string, version uint16, v any) ([]byte, error) {
	payload, err := json.Marshal(v)
	if err != nil {
		return nil, err
	}
	frame := make([]byte, 0, len(magic)+head+len(payload)+4)
	frame = append(frame, magic...)
	frame = binary.LittleEndian.AppendUint16(frame, version)
	frame = binary.LittleEndian.AppendUint32(frame, uint32(len(payload)))
	frame = append(frame, payload...)
	frame = binary.LittleEndian.AppendUint32(frame, crc32.ChecksumIEEE(payload))
	return frame, nil
}

// Decode validates data as a frame of the given magic and version (magic,
// version, length, CRC) and unmarshals its payload into v. Every failure
// wraps corrupt, the caller's sentinel error.
func Decode(data []byte, magic string, version uint16, corrupt error, v any) error {
	h := len(magic) + head
	if len(data) < h+4 {
		return fmt.Errorf("%w: truncated frame (%d bytes)", corrupt, len(data))
	}
	if string(data[:len(magic)]) != magic {
		return fmt.Errorf("%w: bad magic", corrupt)
	}
	if got := binary.LittleEndian.Uint16(data[len(magic):]); got != version {
		return fmt.Errorf("%w: unsupported version %d", corrupt, got)
	}
	n := binary.LittleEndian.Uint32(data[len(magic)+2:])
	if uint64(len(data)) != uint64(h)+uint64(n)+4 {
		return fmt.Errorf("%w: length mismatch", corrupt)
	}
	payload := data[h : h+int(n)]
	if crc32.ChecksumIEEE(payload) != binary.LittleEndian.Uint32(data[h+int(n):]) {
		return fmt.Errorf("%w: checksum mismatch", corrupt)
	}
	if err := json.Unmarshal(payload, v); err != nil {
		return fmt.Errorf("%w: %v", corrupt, err)
	}
	return nil
}

// WriteFile atomically writes data to path: it writes a temp file in the
// same directory, fsyncs it and renames it over path. A crash at any point
// leaves either the old file or the new one under path, never a torn one
// (a torn temp file keeps its ".tmp-" name and is overwritten or ignored).
func WriteFile(path string, data []byte) error {
	tmp, err := os.CreateTemp(filepath.Dir(path), ".tmp-*")
	if err != nil {
		return err
	}
	defer os.Remove(tmp.Name()) // no-op after a successful rename
	if _, err := tmp.Write(data); err != nil {
		tmp.Close()
		return err
	}
	if err := tmp.Sync(); err != nil {
		tmp.Close()
		return err
	}
	if err := tmp.Close(); err != nil {
		return err
	}
	return os.Rename(tmp.Name(), path)
}

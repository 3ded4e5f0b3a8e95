package store

import (
	"bytes"
	"fmt"
	"hash/crc32"
	"strconv"
	"strings"
)

// The on-disk cell format, version 1. One file holds one entry:
//
//	neustore1 <keylen> <vallen> <crc32c-hex>\n
//	<key bytes><value bytes>
//
// The header is a single ASCII line so a corrupt file is inspectable with
// cat; the checksum is CRC-32C (Castagnoli) over key followed by value.
// Decode trusts nothing: magic, field count, length arithmetic, and the
// checksum are all verified before a byte of payload is returned, and any
// violation is ErrCorrupt — the store's cue to quarantine the file and
// let the caller re-simulate rather than serve bad bytes.

// magic is the format tag and version; bumping the version changes the
// tag, so an old store directory reads as corrupt (quarantined and
// re-simulated) instead of being misparsed.
const magic = "neustore1"

// maxEntryLen bounds one entry's key+value payload (16 MiB). Real cell
// entries are hundreds of bytes; the bound keeps a corrupt header from
// asking Decode (or a fuzzer) to allocate gigabytes.
const maxEntryLen = 16 << 20

// ErrCorrupt is returned by Decode for any malformed, truncated, or
// checksum-failing entry. The detail is attached with %w wrapping.
var ErrCorrupt = fmt.Errorf("store: corrupt entry")

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// Entry is one decoded cell record: the canonical key bytes that identify
// the cell (collision defense for the 64-bit file name) and the value
// bytes the serving layer cached.
type Entry struct {
	Key   []byte
	Value []byte
}

// Encode renders an entry in the on-disk format.
func Encode(e Entry) []byte {
	sum := crc32.Update(crc32.Checksum(e.Key, castagnoli), castagnoli, e.Value)
	b := make([]byte, 0, len(magic)+32+len(e.Key)+len(e.Value))
	b = append(b, magic...)
	b = append(b, ' ')
	b = strconv.AppendInt(b, int64(len(e.Key)), 10)
	b = append(b, ' ')
	b = strconv.AppendInt(b, int64(len(e.Value)), 10)
	b = append(b, ' ')
	b = appendHex(b, uint64(sum), 8)
	b = append(b, '\n')
	b = append(b, e.Key...)
	return append(b, e.Value...)
}

// Decode parses and verifies an encoded entry. The returned slices alias
// b. Every failure mode — wrong magic, malformed header, length mismatch,
// oversized payload, trailing garbage, checksum mismatch — is ErrCorrupt.
func Decode(b []byte) (Entry, error) {
	nl := bytes.IndexByte(b, '\n')
	if nl < 0 {
		return Entry{}, fmt.Errorf("%w: no header line", ErrCorrupt)
	}
	header := b[:nl]
	keyLen, valLen, sum, ok := parseHeader(header)
	if !ok {
		return Entry{}, fmt.Errorf("%w: bad header %q", ErrCorrupt, header)
	}
	payload := b[nl+1:]
	if len(payload) != keyLen+valLen {
		return Entry{}, fmt.Errorf("%w: payload is %d bytes, header says %d",
			ErrCorrupt, len(payload), keyLen+valLen)
	}
	if got := crc32.Checksum(payload, castagnoli); got != sum {
		return Entry{}, fmt.Errorf("%w: checksum %08x, want %08x", ErrCorrupt, got, sum)
	}
	return Entry{Key: payload[:keyLen], Value: payload[keyLen:]}, nil
}

// parseHeader reads "neustore1 <keylen> <vallen> <crc32c-hex>" in the one
// spelling Encode writes: decimal lengths without sign or leading zeros,
// single spaces, and exactly eight lowercase hex digits. There is no
// accidental second wire format, and lengths whose sum exceeds
// maxEntryLen are refused before anything is allocated.
func parseHeader(h []byte) (keyLen, valLen int, sum uint32, ok bool) {
	rest, ok := bytes.CutPrefix(h, []byte(magic+" "))
	if !ok {
		return 0, 0, 0, false
	}
	if keyLen, rest, ok = parseLen(rest); !ok {
		return 0, 0, 0, false
	}
	if valLen, rest, ok = parseLen(rest); !ok || keyLen+valLen > maxEntryLen {
		return 0, 0, 0, false
	}
	h64, ok := parseHex(string(rest), 8)
	return keyLen, valLen, uint32(h64), ok
}

// parseLen reads a canonical decimal length up to maxEntryLen followed by
// one space, and returns the bytes after the space.
func parseLen(b []byte) (n int, rest []byte, ok bool) {
	i := 0
	for ; i < len(b) && '0' <= b[i] && b[i] <= '9'; i++ {
		n = n*10 + int(b[i]-'0')
		if n > maxEntryLen {
			return 0, nil, false
		}
	}
	if i == 0 || (b[0] == '0' && i > 1) || i == len(b) || b[i] != ' ' {
		return 0, nil, false
	}
	return n, b[i+1:], true
}

const hexDigits = "0123456789abcdef"

// appendHex appends v as exactly width lowercase hex digits, zero-padded
// (v must fit in width digits).
func appendHex(b []byte, v uint64, width int) []byte {
	for i := width - 1; i >= 0; i-- {
		b = append(b, hexDigits[v>>(4*uint(i))&0xf])
	}
	return b
}

// parseHex reads s as exactly width lowercase hex digits: the inverse of
// appendHex, refusing every other spelling.
func parseHex(s string, width int) (v uint64, ok bool) {
	if len(s) != width {
		return 0, false
	}
	for i := 0; i < len(s); i++ {
		d := strings.IndexByte(hexDigits, s[i])
		if d < 0 {
			return 0, false
		}
		v = v<<4 | uint64(d)
	}
	return v, true
}

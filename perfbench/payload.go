package main

import (
	"encoding/binary"
	"fmt"
)

// Every byte the benchmark writes identifies itself: a header naming the
// object (block or file index, or chunk), its version and the run's seed,
// followed by filler derived from the three. A read is checked against the
// version the reader last had acknowledged, so a stale, misplaced or
// damaged block is caught on every read, not only by the LD's checksums.
const (
	payloadMagic  = 0x4c44424e // "LDBN"
	payloadHeader = 24
)

func payloadBase(key, version, seed uint64) uint64 {
	return splitmix(key*0x9e3779b97f4a7c15 ^ version<<32 ^ seed)
}

func splitmix(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ x>>30) * 0xbf58476d1ce4e5b9
	x = (x ^ x>>27) * 0x94d049bb133111eb
	return x ^ x>>31
}

// fillPayload writes the self-identifying image of (key, version) into p,
// whose length must be a multiple of 8 and at least payloadHeader.
func fillPayload(p []byte, key, version, seed uint64) {
	binary.LittleEndian.PutUint32(p[0:], payloadMagic)
	binary.LittleEndian.PutUint32(p[4:], uint32(len(p)))
	binary.LittleEndian.PutUint64(p[8:], key)
	binary.LittleEndian.PutUint64(p[16:], version)
	base := payloadBase(key, version, seed)
	for i := payloadHeader; i+8 <= len(p); i += 8 {
		binary.LittleEndian.PutUint64(p[i:], base+uint64(i)*0x2545f4914f6cdd1d)
	}
}

// checkPayload reports whether p is exactly the image fillPayload writes
// for (key, version); the error names what differs.
func checkPayload(p []byte, key, version, seed uint64) error {
	if len(p) < payloadHeader || len(p)%8 != 0 {
		return fmt.Errorf("payload of %d bytes", len(p))
	}
	if m := binary.LittleEndian.Uint32(p[0:]); m != payloadMagic {
		return fmt.Errorf("key %d: bad magic %#x", key, m)
	}
	if n := binary.LittleEndian.Uint32(p[4:]); int(n) != len(p) {
		return fmt.Errorf("key %d: length %d, want %d", key, n, len(p))
	}
	gk, gv := binary.LittleEndian.Uint64(p[8:]), binary.LittleEndian.Uint64(p[16:])
	if gk != key || gv != version {
		return fmt.Errorf("holds key %d version %d, want key %d version %d", gk, gv, key, version)
	}
	base := payloadBase(key, version, seed)
	for i := payloadHeader; i+8 <= len(p); i += 8 {
		if binary.LittleEndian.Uint64(p[i:]) != base+uint64(i)*0x2545f4914f6cdd1d {
			return fmt.Errorf("key %d version %d: filler differs at byte %d", key, version, i)
		}
	}
	return nil
}

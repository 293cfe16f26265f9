package main

import (
	"encoding/binary"
	"strings"
)

func cpuid(leaf uint32) (eax, ebx, ecx, edx uint32)

// cpuModel is the processor brand string the CPUID instruction reports.
// Asking the processor, rather than reading /proc/cpuinfo, keeps the
// benchmark from reading any file outside its checkout.
func cpuModel() string {
	if max, _, _, _ := cpuid(0x80000000); max < 0x80000004 {
		return "unknown"
	}
	var b [48]byte
	for i := uint32(0); i < 3; i++ {
		a, bx, c, d := cpuid(0x80000002 + i)
		for j, v := range []uint32{a, bx, c, d} {
			binary.LittleEndian.PutUint32(b[16*i+4*uint32(j):], v)
		}
	}
	return strings.TrimSpace(strings.TrimRight(string(b[:]), "\x00"))
}

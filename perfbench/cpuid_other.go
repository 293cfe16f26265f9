//go:build !amd64

package main

// cpuModel is unknown where the benchmark has no CPUID reader.
func cpuModel() string { return "unknown" }

//go:build arm64 && !noasm

package leaf

import (
	"encoding/binary"
	"os"
	"runtime"
)

// NEON (AdvSIMD) is architecturally mandatory for the AArch64
// application profile and the Go runtime already assumes FP/SIMD state,
// so this probe is close to a formality; on linux it still consults the
// kernel's capability word (auxiliary vector AT_HWCAP, bit 1 = ASIMD)
// through /proc/self/auxv — stdlib-only — instead of assuming. Other
// arm64 OSes (darwin) expose no auxv and AdvSIMD is baseline there.
var cpuASIMD = detectASIMD()

func detectASIMD() bool {
	if runtime.GOOS != "linux" {
		return true
	}
	buf, err := os.ReadFile("/proc/self/auxv")
	if err != nil {
		// auxv unreadable (restricted procfs): fall back to the
		// architectural guarantee.
		return true
	}
	const atHWCAP, hwcapASIMD = 16, 1 << 1
	for i := 0; i+16 <= len(buf); i += 16 {
		if binary.LittleEndian.Uint64(buf[i:]) == atHWCAP {
			return binary.LittleEndian.Uint64(buf[i+8:])&hwcapASIMD != 0
		}
	}
	return true
}

// archFeatures reports the probed SIMD capabilities of this CPU.
func archFeatures() []string {
	if cpuASIMD {
		return []string{"asimd"}
	}
	return nil
}

// archSIMD returns the assembly kernel families this CPU can run.
func archSIMD() []simdImpl {
	if !cpuASIMD {
		return nil
	}
	return []simdImpl{{name: "neon", mk: microNEON, features: "asimd", balance: 1.7}}
}

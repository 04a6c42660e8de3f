//go:build armbe || arm64be || m68k || mips || mips64 || mips64p32 || ppc || ppc64 || s390 || s390x || shbe || sparc || sparc64

package mpi

// An aliasing view cannot be emulated by a byte-swapping codec, and a
// second data path is not wanted, so the build stops here.
const _ = "package mpi views little-endian buffer bytes in place (view.go) and does not support big-endian targets" + 0

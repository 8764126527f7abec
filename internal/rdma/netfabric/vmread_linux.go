//go:build linux && (amd64 || arm64)

package netfabric

import (
	"syscall"
	"unsafe"
)

// Yama's prctl pair (linux/prctl.h): let any process of this uid attach to
// the caller.
const (
	prSetPtracer    = 0x59616d61
	prSetPtracerAny = ^uintptr(0)
)

// allowPeerReads lifts Yama's ptrace_scope 1 restriction for this process,
// so sibling ranks, which are not its ancestors, may process_vm_readv it
// (what Open MPI's CMA path does). It grants nothing a same-uid process
// lacks at scope 0. Where Yama is absent the call fails and nothing was
// needed; scopes 2 and 3 it cannot lift, and the attach probe reports them.
func allowPeerReads() {
	syscall.Syscall(syscall.SYS_PRCTL, prSetPtracer, prSetPtracerAny, 0)
}

// The local iovec's base is a pointer, as the kernel ABI and x/sys/unix
// declare it, so a destination on a goroutine stack is still found if the
// stack moves before the kernel is entered. The remote base is an address
// in another process and means nothing to this one's collector.
type (
	localIovec struct {
		base *byte
		len  uint64
	}
	remoteIovec struct {
		base uintptr
		len  uint64
	}
)

// vmRead fills dst from len(dst) bytes at addr in process pid's memory
// (process_vm_readv(2)), looping on short counts. It is Syscall6, not
// RawSyscall6: a multi-megabyte copy must not pin its P.
func vmRead(pid int, dst []byte, addr uintptr) syscall.Errno {
	for len(dst) > 0 {
		local := localIovec{unsafe.SliceData(dst), uint64(len(dst))}
		remote := remoteIovec{addr, uint64(len(dst))}
		n, _, errno := syscall.Syscall6(sysProcessVMReadv, uintptr(pid),
			uintptr(unsafe.Pointer(&local)), 1, uintptr(unsafe.Pointer(&remote)), 1, 0)
		switch {
		case errno == syscall.EINTR:
			continue
		case errno != 0:
			return errno
		case n == 0: // no progress and no errno: the range is not there
			return syscall.EFAULT
		}
		dst, addr = dst[n:], addr+n
	}
	return 0
}

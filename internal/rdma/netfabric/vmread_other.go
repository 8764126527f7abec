//go:build !(linux && (amd64 || arm64))

package netfabric

import "syscall"

// No cross-memory attach here: the attach probe sees ENOSYS and reports
// direct reads refused.
func allowPeerReads() {}

func vmRead(pid int, dst []byte, addr uintptr) syscall.Errno { return syscall.ENOSYS }

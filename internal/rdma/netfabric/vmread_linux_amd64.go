package netfabric

// The frozen syscall package has no process_vm_readv number.
const sysProcessVMReadv = 310

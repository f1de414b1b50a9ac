//go:build unix

package tcpmpi

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"syscall"
)

// createMapping makes the file behind one connection's rings — under /dev/shm
// where there is one, so that no page of it ever meets a disk — and maps it.
// The caller tells its peer the name, waits until the peer has mapped it too,
// and removes the name; the memory lives until both have unmapped it.
func createMapping() (mem []byte, path string, err error) {
	f, err := os.CreateTemp("/dev/shm", ringPrefix+"*")
	if err != nil {
		if f, err = os.CreateTemp("", ringPrefix+"*"); err != nil {
			return nil, "", fmt.Errorf("tcpmpi: creating ring file: %w", err)
		}
	}
	defer f.Close()
	if err = f.Truncate(ConnBytes); err == nil {
		mem, err = syscall.Mmap(int(f.Fd()), 0, ConnBytes, syscall.PROT_READ|syscall.PROT_WRITE, syscall.MAP_SHARED)
	}
	if err != nil {
		os.Remove(f.Name())
		return nil, "", fmt.Errorf("tcpmpi: mapping ring file: %w", err)
	}
	return mem, f.Name(), nil
}

// openMapping maps the file a peer named. The name arrived over a socket:
// anything but a ring file of the right size is refused before it is mapped.
func openMapping(path string) ([]byte, error) {
	if !strings.HasPrefix(filepath.Base(path), ringPrefix) {
		return nil, fmt.Errorf("tcpmpi: %q is not a ring file", path)
	}
	f, err := os.OpenFile(path, os.O_RDWR, 0)
	if err != nil {
		return nil, fmt.Errorf("tcpmpi: opening ring file: %w", err)
	}
	defer f.Close()
	if st, err := f.Stat(); err != nil || !st.Mode().IsRegular() || st.Size() != ConnBytes {
		return nil, fmt.Errorf("tcpmpi: ring file %q is not %d bytes of regular file (%v)", path, ConnBytes, err)
	}
	mem, err := syscall.Mmap(int(f.Fd()), 0, ConnBytes, syscall.PROT_READ|syscall.PROT_WRITE, syscall.MAP_SHARED)
	if err != nil {
		return nil, fmt.Errorf("tcpmpi: mapping ring file: %w", err)
	}
	return mem, nil
}

// unmap gives a mapping back; nil is nothing to give.
func unmap(mem []byte) {
	if mem != nil {
		syscall.Munmap(mem)
	}
}

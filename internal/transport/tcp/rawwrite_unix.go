//go:build unix

package tcp

import (
	"net"
	"os"
	"syscall"
)

// rawWriter returns the link's inline write: one non-blocking write(2) of b,
// reporting how many bytes the socket took — none when it is full. It never
// waits for the socket to become writable. The closure and its results are
// made once per link, so an inline write allocates nothing; the link calls
// it only under its mutex.
func rawWriter(conn net.Conn) func(b []byte) (int, error) {
	rc, err := conn.(*net.TCPConn).SyscallConn()
	if err != nil {
		return nil
	}
	var (
		buf  []byte
		n    int
		werr error
	)
	write := func(fd uintptr) bool {
		n, werr = syscall.Write(int(fd), buf)
		return true
	}
	return func(b []byte) (int, error) {
		buf = b
		err := rc.Write(write)
		buf = nil
		switch {
		case err != nil:
			return 0, err
		case werr == syscall.EAGAIN || werr == syscall.EINTR:
			return 0, nil
		case werr != nil:
			return 0, os.NewSyscallError("write", werr)
		}
		return n, nil
	}
}

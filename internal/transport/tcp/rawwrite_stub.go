//go:build !unix

package tcp

import "net"

// rawWriter reports no inline write on platforms without write(2): the link
// never enters direct mode and its writer goroutine sends every frame.
func rawWriter(conn net.Conn) func(b []byte) (int, error) { return nil }

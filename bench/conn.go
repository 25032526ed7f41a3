package main

import (
	"net"
	"sync/atomic"
)

// connStats totals the traffic of every connection end that shares it.
type connStats struct {
	writes, writeBytes, reads, readBytes atomic.Int64
}

// countingConn counts the calls and bytes crossing one end of a
// connection, so bytes and writes per agent-round are measured from
// outside agentproto on both transports.
type countingConn struct {
	net.Conn
	st *connStats
}

func (c countingConn) Read(p []byte) (int, error) {
	n, err := c.Conn.Read(p)
	c.st.reads.Add(1)
	c.st.readBytes.Add(int64(n))
	return n, err
}

func (c countingConn) Write(p []byte) (int, error) {
	n, err := c.Conn.Write(p)
	c.st.writes.Add(1)
	c.st.writeBytes.Add(int64(n))
	return n, err
}

// connCounts is a point-in-time copy of a connStats.
type connCounts struct{ writes, writeBytes, reads, readBytes int64 }

func (s *connStats) load() connCounts {
	return connCounts{s.writes.Load(), s.writeBytes.Load(), s.reads.Load(), s.readBytes.Load()}
}

func (a connCounts) sub(b connCounts) connCounts {
	return connCounts{a.writes - b.writes, a.writeBytes - b.writeBytes, a.reads - b.reads, a.readBytes - b.readBytes}
}

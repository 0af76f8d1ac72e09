package main

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"net"
	"strconv"
	"strings"
	"time"
)

// The benchmark speaks ravencached's wire protocols with its own
// client, so that every reply is checked against what the benchmark
// sent rather than against the program's client library.
//
// Binary request frame, 26 bytes little-endian:
//
//	magic 0x80, verb, key(8), size(8), time(8)
//
// Binary reply frame, 10 bytes: magic 0x81, status, size(8).
const (
	reqLen   = 26
	respLen  = 10
	magicReq = 0x80
	magicRsp = 0x81
	verbGet  = 0x01
	verbSet  = 0x02
	verbQuit = 0x03

	statusHit       = 0x00
	statusMiss      = 0x01
	statusStored    = 0x02
	statusNotStored = 0x03
)

// ioTimeout bounds every blocking read or write, so a server that dies
// or wedges fails the run instead of hanging it.
const ioTimeout = 60 * time.Second

type wireConn struct {
	c      net.Conn
	r      *bufio.Reader
	w      *bufio.Writer
	binary bool
	buf    []byte
}

func dial(addr string, binaryProto bool) (*wireConn, error) {
	c, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("dial %s: %w", addr, err)
	}
	return &wireConn{
		c:      c,
		r:      bufio.NewReaderSize(c, 64<<10),
		w:      bufio.NewWriterSize(c, 64<<10),
		binary: binaryProto,
		buf:    make([]byte, 0, 64),
	}, nil
}

func (w *wireConn) arm() error { return w.c.SetDeadline(time.Now().Add(ioTimeout)) }

// close sends QUIT and closes the connection.
func (w *wireConn) close() error {
	if err := w.arm(); err != nil {
		_ = w.c.Close()
		return err
	}
	if w.binary {
		var f [reqLen]byte
		f[0], f[1] = magicReq, verbQuit
		_, _ = w.w.Write(f[:])
	} else {
		_, _ = w.w.WriteString("QUIT\n")
	}
	flushErr := w.w.Flush()
	if err := w.c.Close(); err != nil {
		return err
	}
	return flushErr
}

// writeOp appends o's encoding to the connection's write buffer.
func (w *wireConn) writeOp(o op) error {
	if w.binary {
		var f [reqLen]byte
		f[0] = magicReq
		f[1] = verbGet
		if o.set {
			f[1] = verbSet
		}
		binary.LittleEndian.PutUint64(f[2:], o.key)
		binary.LittleEndian.PutUint64(f[10:], uint64(o.size))
		binary.LittleEndian.PutUint64(f[18:], uint64(o.t))
		_, err := w.w.Write(f[:])
		return err
	}
	b := w.buf[:0]
	if o.set {
		b = append(b, "SET "...)
	} else {
		b = append(b, "GET "...)
	}
	b = strconv.AppendUint(b, o.key, 10)
	b = append(b, ' ')
	b = strconv.AppendInt(b, o.size, 10)
	b = append(b, ' ')
	b = strconv.AppendInt(b, o.t, 10)
	b = append(b, '\n')
	w.buf = b
	_, err := w.w.Write(b)
	return err
}

// readReply reads the reply to o and reports whether it was positive
// (HIT for a GET, STORED for a SET). A reply of the wrong kind or with
// a size other than o's is an error.
func (w *wireConn) readReply(o op) (bool, error) {
	if w.binary {
		var f [respLen]byte
		if _, err := io.ReadFull(w.r, f[:]); err != nil {
			return false, fmt.Errorf("read reply: %w", err)
		}
		size := int64(binary.LittleEndian.Uint64(f[2:]))
		if f[0] != magicRsp || size != o.size {
			return false, fmt.Errorf("bad reply frame % x for key %d size %d", f, o.key, o.size)
		}
		switch {
		case !o.set && f[1] == statusHit, o.set && f[1] == statusStored:
			return true, nil
		case !o.set && f[1] == statusMiss, o.set && f[1] == statusNotStored:
			return false, nil
		}
		return false, fmt.Errorf("reply status 0x%02x for key %d", f[1], o.key)
	}
	line, err := w.r.ReadSlice('\n')
	if err != nil {
		return false, fmt.Errorf("read reply: %w", err)
	}
	s := strings.TrimSpace(string(line))
	yes, no := "HIT ", "MISS "
	if o.set {
		yes, no = "STORED ", "NOSTORED "
	}
	want := strconv.FormatInt(o.size, 10)
	switch s {
	case yes + want:
		return true, nil
	case no + want:
		return false, nil
	}
	return false, fmt.Errorf("unexpected reply %q for key %d size %d", s, o.key, o.size)
}

// timing records, per operation, when its request left the client and
// when its reply arrived, in nanoseconds since base.
type timing struct {
	base time.Time
	send []int64
	recv []int64
}

func newTiming(n int) *timing {
	return &timing{send: make([]int64, n), recv: make([]int64, n)}
}

func (t *timing) now() int64 { return int64(time.Since(t.base)) }

// pipeline sends ops over one connection keeping up to depth requests
// in flight: whenever the window drains to half, it is refilled and
// flushed in one write. Replies come back in request order. pos[i]
// receives whether op i's reply was positive; tm (optional) receives
// its send and receive times at index off+i.
func (w *wireConn) pipeline(ops []op, depth int, pos []bool, tm *timing, off int) error {
	if depth < 1 {
		depth = 1
	}
	next, done := 0, 0
	for done < len(ops) {
		if inflight := next - done; next < len(ops) && inflight <= depth/2 {
			if err := w.arm(); err != nil {
				return err
			}
			first := next
			for next < len(ops) && next-done < depth {
				if err := w.writeOp(ops[next]); err != nil {
					return fmt.Errorf("write op %d: %w", next, err)
				}
				next++
			}
			if tm != nil {
				t := tm.now()
				for i := first; i < next; i++ {
					tm.send[off+i] = t
				}
			}
			if err := w.w.Flush(); err != nil {
				return fmt.Errorf("flush: %w", err)
			}
		}
		ok, err := w.readReply(ops[done])
		if err != nil {
			return fmt.Errorf("op %d: %w", done, err)
		}
		if tm != nil {
			tm.recv[off+done] = tm.now()
		}
		pos[done] = ok
		done++
	}
	return nil
}

// command sends one text-protocol command line and returns the reply's
// first line.
func (w *wireConn) command(cmd string) (string, error) {
	if err := w.arm(); err != nil {
		return "", err
	}
	if _, err := w.w.WriteString(cmd + "\n"); err != nil {
		return "", err
	}
	if err := w.w.Flush(); err != nil {
		return "", err
	}
	line, err := w.r.ReadString('\n')
	if err != nil {
		return "", fmt.Errorf("%s: %w", cmd, err)
	}
	return strings.TrimSpace(line), nil
}

// serverStats is the reply to STATS.
type serverStats struct{ requests, hits, reqBytes, hitBytes int64 }

func (w *wireConn) stats() (serverStats, error) {
	line, err := w.command("STATS")
	if err != nil {
		return serverStats{}, err
	}
	f := strings.Fields(line)
	if len(f) != 5 || f[0] != "STATS" {
		return serverStats{}, fmt.Errorf("bad STATS reply %q", line)
	}
	var v [4]int64
	for i := range v {
		if v[i], err = strconv.ParseInt(f[i+1], 10, 64); err != nil {
			return serverStats{}, fmt.Errorf("bad STATS reply %q: %w", line, err)
		}
	}
	return serverStats{v[0], v[1], v[2], v[3]}, nil
}

// metrics issues METRICS and returns the name → value snapshot.
func (w *wireConn) metrics() (map[string]int64, error) {
	head, err := w.command("METRICS")
	if err != nil {
		return nil, err
	}
	f := strings.Fields(head)
	if len(f) != 2 || f[0] != "METRICS" {
		return nil, fmt.Errorf("bad METRICS header %q", head)
	}
	n, err := strconv.Atoi(f[1])
	if err != nil || n < 0 {
		return nil, fmt.Errorf("bad METRICS header %q", head)
	}
	out := make(map[string]int64, n)
	for i := 0; i < n; i++ {
		line, err := w.r.ReadString('\n')
		if err != nil {
			return nil, fmt.Errorf("METRICS line %d: %w", i, err)
		}
		kv := strings.Fields(line)
		if len(kv) != 2 {
			return nil, fmt.Errorf("bad METRICS line %q", strings.TrimSpace(line))
		}
		v, err := strconv.ParseInt(kv[1], 10, 64)
		if err != nil {
			return nil, fmt.Errorf("bad METRICS line %q: %w", strings.TrimSpace(line), err)
		}
		out[kv[0]] = v
	}
	return out, nil
}

// ping waits until the server at addr answers PING with PONG, retrying
// the dial until deadline.
func ping(addr string, deadline time.Time) error {
	for {
		w, err := dial(addr, false)
		if err == nil {
			reply, err := w.command("PING")
			_ = w.c.Close()
			if err == nil && reply == "PONG" {
				return nil
			}
			if err == nil {
				return fmt.Errorf("PING answered %q", reply)
			}
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("server at %s never answered PING: %v", addr, err)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

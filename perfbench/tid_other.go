//go:build !linux

package main

import (
	"bytes"
	"runtime"
	"strconv"
)

// threadID stands in for the OS thread ID where there is no gettid: it
// is the calling goroutine's ID, read from the header line of its
// stack trace ("goroutine 7 [running]:"). It is slower, but it tells
// the load goroutine apart just as well.
func threadID() int {
	var buf [64]byte
	b := buf[:runtime.Stack(buf[:], false)]
	b = bytes.TrimPrefix(b, []byte("goroutine "))
	if i := bytes.IndexByte(b, ' '); i > 0 {
		b = b[:i]
	}
	id, _ := strconv.Atoi(string(b))
	return id
}

package main

import "syscall"

// threadID is the calling OS thread's ID.
func threadID() int { return syscall.Gettid() }

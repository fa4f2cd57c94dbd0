//go:build !linux

package main

import "runtime"

func kernel() string { return runtime.GOOS }

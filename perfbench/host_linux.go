package main

import "syscall"

// kernel names the running kernel, as uname -sr prints it.
func kernel() string {
	var u syscall.Utsname
	if err := syscall.Uname(&u); err != nil {
		return "unknown"
	}
	str := func(f [65]int8) string {
		b := make([]byte, 0, len(f))
		for _, c := range f {
			if c == 0 {
				break
			}
			b = append(b, byte(c))
		}
		return string(b)
	}
	return str(u.Sysname) + " " + str(u.Release)
}

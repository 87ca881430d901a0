//go:build !linux

package main

// filesystem names the filesystem holding dir; only Linux is decoded.
func filesystem(string) string { return "unknown" }

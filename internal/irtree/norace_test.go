//go:build !race

package irtree

const raceEnabled = false

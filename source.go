package crve

import "embed"

// Source holds go.mod and the Go files of the internal packages: every
// source a simulation's outcome depends on. The result cache names its
// entries' code by a digest of it (regress.CodeVersion). The embed pattern
// cannot leave out the _test.go files; the digest does.
//
//go:embed go.mod internal/*/*.go
var Source embed.FS

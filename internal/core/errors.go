package core

import (
	"fmt"
	"path/filepath"
	"runtime"
)

// callSite is a captured user code location. Capturing it costs one stack
// walk and no allocation; the file:line text is resolved only when a
// diagnostic reads it (String), so operations that never fail never pay
// for symbolization.
type callSite [1]uintptr

// callerLoc captures the user code location skip frames above the
// caller. Pilot's hallmark diagnostics report API misuse by source file
// and line number; every abort in this package carries one.
func callerLoc(skip int) callSite {
	var s callSite
	runtime.Callers(skip+2, s[:])
	return s
}

// String reports the location as "file.go:42".
func (s callSite) String() string {
	f, _ := runtime.CallersFrames(s[:]).Next()
	if f.PC == 0 {
		return "unknown:0"
	}
	return fmt.Sprintf("%s:%d", filepath.Base(f.File), f.Line)
}

// usageError formats a Pilot-style diagnostic: location, API name, detail.
func usageError(loc, api, format string, args ...any) error {
	return fmt.Errorf("pilot: %s: %s: %s", loc, api, fmt.Sprintf(format, args...))
}

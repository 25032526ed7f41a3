package telemetry

import (
	"runtime"
	"runtime/debug"
)

// BuildInfo pins the binary a measurement came from: load reports and
// flight bundles carry it so a recorded p99 can always be
// traced back to the exact revision and platform that produced it.
type BuildInfo struct {
	// GoVersion is the toolchain that built the binary.
	GoVersion string `json:"go_version"`
	// Path and ModuleVersion identify the main module. ModuleVersion is
	// "(devel)" for source builds outside a released module version.
	Path          string `json:"path,omitempty"`
	ModuleVersion string `json:"module_version,omitempty"`
	// VCSRevision/VCSTime are the commit the binary was built from, when
	// the build embedded VCS stamps (empty for `go test` binaries and
	// builds outside a repository). VCSModified reports uncommitted
	// changes at build time — a dirty p99 is worth knowing about.
	VCSRevision string `json:"vcs_revision,omitempty"`
	VCSTime     string `json:"vcs_time,omitempty"`
	VCSModified bool   `json:"vcs_modified,omitempty"`
	// GOOS/GOARCH are the runtime platform.
	GOOS   string `json:"goos"`
	GOARCH string `json:"goarch"`
}

// ReadBuildInfo collects the binary's build identity from
// runtime/debug.ReadBuildInfo. Fields the build did not stamp stay
// empty; GoVersion, GOOS, and GOARCH are always set.
func ReadBuildInfo() BuildInfo {
	info := BuildInfo{
		GoVersion: runtime.Version(),
		GOOS:      runtime.GOOS,
		GOARCH:    runtime.GOARCH,
	}
	bi, ok := debug.ReadBuildInfo()
	if !ok {
		return info
	}
	if bi.GoVersion != "" {
		info.GoVersion = bi.GoVersion
	}
	info.Path = bi.Main.Path
	info.ModuleVersion = bi.Main.Version
	for _, s := range bi.Settings {
		switch s.Key {
		case "vcs.revision":
			info.VCSRevision = s.Value
		case "vcs.time":
			info.VCSTime = s.Value
		case "vcs.modified":
			info.VCSModified = s.Value == "true"
		}
	}
	return info
}

package main

import (
	"bufio"
	"fmt"
	"os"
	"runtime"
	"strings"
	"syscall"
)

// host identifies the machine a result set was measured on. Results from
// hosts that differ in any field are not compared (see compareResults).
type host struct {
	CPU        string `json:"cpu"`
	NumCPU     int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go"`
	GOOS       string `json:"goos"`
	GOARCH     string `json:"goarch"`
	StoreFS    string `json:"store_fs"`
}

func hostFingerprint(storeDir string) host {
	return host{
		CPU:        cpuModel(),
		NumCPU:     runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
		GOOS:       runtime.GOOS,
		GOARCH:     runtime.GOARCH,
		StoreFS:    fsType(storeDir),
	}
}

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		k, v, ok := strings.Cut(sc.Text(), ":")
		if ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// fsType names the filesystem holding dir, from its statfs magic number.
func fsType(dir string) string {
	var st syscall.Statfs_t
	if err := syscall.Statfs(dir, &st); err != nil {
		return "unknown"
	}
	switch uint64(st.Type) {
	case 0xEF53:
		return "ext4"
	case 0x01021994:
		return "tmpfs"
	case 0x794c7630:
		return "overlayfs"
	case 0x58465342:
		return "xfs"
	case 0x9123683E:
		return "btrfs"
	default:
		return fmt.Sprintf("0x%x", uint64(st.Type))
	}
}

// diff lists the fields in which two fingerprints differ.
func (h host) diff(o host) []string {
	var d []string
	add := func(name string, a, b any) {
		if a != b {
			d = append(d, fmt.Sprintf("%s: %v vs %v", name, a, b))
		}
	}
	add("cpu", h.CPU, o.CPU)
	add("nproc", h.NumCPU, o.NumCPU)
	add("gomaxprocs", h.GOMAXPROCS, o.GOMAXPROCS)
	add("go", h.GoVersion, o.GoVersion)
	add("goos", h.GOOS, o.GOOS)
	add("goarch", h.GOARCH, o.GOARCH)
	add("store_fs", h.StoreFS, o.StoreFS)
	return d
}

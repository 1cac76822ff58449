// Command codeletgen emits the generated codelets of internal/codelet from
// the generator in internal/codegen: the split-radix tier
// (zsplitradix*.go, zsplitradix_amd64.s) and the WHT pass kernels (zwht*.go,
// zwht_amd64.s).
//
// Modes:
//
//	codeletgen -o zsplitradix.go          write the tier's files into the
//	                                      directory of -o (go:generate)
//	codeletgen -verify                    exit 1 if a committed file drifted;
//	                                      print each assembly kernel's counts
//	codeletgen -standalone -n 32 -flavor plain -o main.go
//	                                      emit a self-testing package main for
//	                                      one straight-line kernel (CI smoke)
package main

import (
	"bytes"
	"flag"
	"fmt"
	"os"
	"path/filepath"

	"spiralfft/internal/codegen"
)

func main() {
	var (
		out        = flag.String("o", "internal/codelet/zsplitradix.go", "output path; the tier's files go to its directory (- for stdout with -standalone)")
		verify     = flag.Bool("verify", false, "compare the generator's output against the files instead of writing")
		standalone = flag.Bool("standalone", false, "emit a self-testing package main for one kernel")
		n          = flag.Int("n", 32, "kernel size for -standalone")
		flavor     = flag.String("flavor", "plain", "kernel flavor for -standalone: plain or tw")
	)
	flag.Parse()
	var err error
	if *standalone {
		err = runStandalone(*out, *n, *flavor)
	} else {
		err = runTier(filepath.Dir(*out), *verify)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "codeletgen:", err)
		os.Exit(1)
	}
}

func runStandalone(out string, n int, flavor string) error {
	var data []byte
	var err error
	switch flavor {
	case "plain":
		data, err = codegen.SplitRadixStandalone(n, false)
	case "tw":
		data, err = codegen.SplitRadixStandalone(n, true)
	default:
		err = fmt.Errorf("unknown flavor %q (want plain or tw)", flavor)
	}
	if err != nil {
		return err
	}
	if out == "-" {
		_, err = os.Stdout.Write(data)
		return err
	}
	return os.WriteFile(out, data, 0o644)
}

func runTier(dir string, verify bool) error {
	files, stats, err := codegen.CodeletFiles()
	if err != nil {
		return err
	}
	for _, f := range files {
		path := filepath.Join(dir, f.Name)
		if !verify {
			if err := os.WriteFile(path, f.Data, 0o644); err != nil {
				return err
			}
			continue
		}
		have, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		if !bytes.Equal(have, f.Data) {
			return fmt.Errorf("%s is stale: regenerate with go generate ./internal/codelet", path)
		}
		fmt.Printf("%s is up to date (%d bytes)\n", path, len(f.Data))
	}
	if verify {
		for _, s := range stats {
			fmt.Println(s)
		}
	}
	return nil
}

package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"slices"
	"strconv"
	"strings"
)

// repeatRuns runs every workload k times, each run in a child process with
// seed+round, alternating the workload order from round to round. It prints,
// per workload and end-to-end metric, the median, the quartile spread
// (Q3−Q1)/median and the largest deviation from the median, then all values
// as one JSON line for further analysis.
func repeatRuns(k int, seed uint64, seconds float64, stdout, stderr io.Writer) error {
	exe, err := os.Executable()
	if err != nil {
		return err
	}
	values := map[string]map[string][]float64{}
	units := map[string]string{}
	for r := 0; r < k; r++ {
		order := slices.Clone(workloads)
		if r%2 == 1 {
			slices.Reverse(order)
		}
		for _, w := range order {
			s := strconv.FormatUint(seed+uint64(r), 10)
			cmd := exec.Command(exe, "--workload", w.name, "--seed", s,
				"--seconds", strconv.FormatFloat(seconds, 'g', -1, 64))
			var out, errOut bytes.Buffer
			cmd.Stdout, cmd.Stderr = &out, &errOut
			if err := cmd.Run(); err != nil {
				return fmt.Errorf("%s seed %s: %w\n%s", w.name, s, err, errOut.String())
			}
			lines := strings.Split(strings.TrimSpace(out.String()), "\n")
			var rep report
			if err := json.Unmarshal([]byte(lines[len(lines)-1]), &rep); err != nil {
				return fmt.Errorf("%s seed %s: %w", w.name, s, err)
			}
			if !rep.Correct {
				return fmt.Errorf("%s seed %s: %d of %d ops failed", w.name, s, rep.Failed, rep.Attempted)
			}
			if values[w.name] == nil {
				values[w.name] = map[string][]float64{}
			}
			for name, v := range rep.Metrics {
				values[w.name][name] = append(values[w.name][name], v.Value)
				units[name] = v.Unit
			}
			fmt.Fprintf(stderr, "round %d/%d %s seed %s done\n", r+1, k, w.name, s)
		}
	}
	fmt.Fprintf(stdout, "%-12s %-16s %12s %8s %8s  %s\n", "workload", "metric", "median", "iqr", "maxdev", "unit")
	for _, w := range workloads {
		var names []string
		for m := range values[w.name] {
			names = append(names, m)
		}
		slices.Sort(names)
		for _, m := range names {
			v := values[w.name][m]
			med := median(v)
			q1, q3 := quartiles(v)
			var dev float64
			for _, x := range v {
				dev = max(dev, math.Abs(x-med)/med)
			}
			fmt.Fprintf(stdout, "%-12s %-16s %12.5g %7.2f%% %7.2f%%  %s\n", w.name, m, med, (q3-q1)/med*100, dev*100, units[m])
		}
	}
	data, err := json.Marshal(values)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintln(stdout, string(data))
	return err
}

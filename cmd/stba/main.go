// Command stba is the STBus Analyzer CLI: it compares two waveform dumps
// (typically the RTL and BCA runs of the same test and seed) and prints the
// per-port alignment table against the 99 % sign-off threshold. It can also
// extract the STBus transaction stream observed at one port. Inputs may be
// text VCD dumps or compact binary recordings (.crw, as written by
// regress -wave), in any combination — the format is sniffed per file.
//
// Usage:
//
//	stba rtl.vcd bca.vcd                  # per-port alignment table
//	stba rtl.crw bca.crw                  # same, from binary recordings
//	stba -ports node.init0 rtl.vcd bca.vcd
//	stba -extract node.init0 -type 3 rtl.vcd
//	stba -signals node.init0 rtl.vcd bca.vcd  # per-signal drill-down
package main

import (
	"bytes"
	"flag"
	"fmt"
	"os"
	"strings"

	"crve/internal/stba"
	"crve/internal/stbus"
	"crve/internal/vcd"
)

func main() {
	var (
		portsArg = flag.String("ports", "", "comma-separated port prefixes (default: discover)")
		extract  = flag.String("extract", "", "extract transactions at this port from one dump")
		typeArg  = flag.Int("type", 3, "STBus protocol type for -extract (1, 2 or 3)")
		signals  = flag.String("signals", "", "drill into one port: per-signal alignment rates")
	)
	flag.Parse()
	if err := run(*portsArg, *extract, *signals, *typeArg, flag.Args()); err != nil {
		fmt.Fprintln(os.Stderr, "stba:", err)
		os.Exit(1)
	}
}

// parseVCD loads a waveform file as a parsed dump, accepting either text VCD
// or a compact binary recording (sniffed by magic, not extension). An error
// names the file.
func parseVCD(path string) (*vcd.File, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	if vcd.IsRecording(data) {
		rec, err := vcd.DecodeRecording(data)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		return rec.File(), nil
	}
	f, err := vcd.Parse(bytes.NewReader(data))
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return f, nil
}

func run(portsArg, extract, signals string, typeArg int, args []string) error {
	if extract != "" {
		if len(args) != 1 {
			return fmt.Errorf("-extract needs exactly one VCD file")
		}
		f, err := parseVCD(args[0])
		if err != nil {
			return err
		}
		txs, err := stba.ExtractTransactions(f, extract, stbus.Type(typeArg))
		if err != nil {
			return err
		}
		for _, tr := range txs {
			fmt.Println(tr)
		}
		fmt.Printf("%d transactions at %s\n", len(txs), extract)
		return nil
	}
	if len(args) != 2 {
		return fmt.Errorf("usage: stba [flags] rtl.vcd bca.vcd")
	}
	a, err := parseVCD(args[0])
	if err != nil {
		return err
	}
	b, err := parseVCD(args[1])
	if err != nil {
		return err
	}
	if signals != "" {
		rates, err := stba.SignalRates(a, b, signals)
		if err != nil {
			return err
		}
		fmt.Printf("per-signal alignment at %s (worst first):\n", signals)
		for _, sr := range rates {
			fmt.Printf("  %-40s %7.2f%%\n", sr.Signal, sr.Rate())
		}
		return nil
	}
	var ports []string
	if portsArg != "" {
		ports = strings.Split(portsArg, ",")
	}
	rep, err := stba.Compare(a, b, ports)
	if err != nil {
		return err
	}
	fmt.Print(rep)
	if !rep.AllPass() {
		return fmt.Errorf("alignment below the %.0f%% sign-off rate", stba.SignoffRate)
	}
	fmt.Printf("all ports at or above %.0f%%: BCA model may be signed off\n", stba.SignoffRate)
	return nil
}

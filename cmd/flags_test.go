package cmd_test

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

var updateFlags = flag.Bool("update-flags", false, "rewrite testdata/flags.golden from the built binaries")

// defaultRE matches the "(default X)" suffix the flag package appends to a
// usage line when the default is not the type's zero value.
var defaultRE = regexp.MustCompile(`\(default (.*)\)$`)

// flagSurface runs "<bin> -h" and returns one "bin -name type default" line
// per flag. Usage text is deliberately not part of the surface.
func flagSurface(t *testing.T, bin string) []string {
	t.Helper()
	out, err := run(t, bin, "-h")
	if err != nil {
		t.Fatalf("%s -h: %v\n%s", bin, err, out)
	}
	var (
		lines []string
		entry []string // header line, then usage continuation lines
	)
	flush := func() {
		if len(entry) == 0 {
			return
		}
		// Header: "  -name type" (type absent for bools); a short flag's
		// usage follows the header on the same line after a tab.
		head := strings.Fields(strings.SplitN(entry[0], "\t", 2)[0])
		name, typ := head[0], "bool"
		if len(head) > 1 {
			typ = head[1]
		}
		def := ""
		if m := defaultRE.FindStringSubmatch(strings.TrimSpace(entry[len(entry)-1])); m != nil {
			def = m[1]
		}
		lines = append(lines, strings.TrimSpace(fmt.Sprintf("%s %s %s %s", bin, name, typ, def)))
		entry = nil
	}
	for _, line := range strings.Split(out, "\n") {
		switch {
		case strings.HasPrefix(line, "  -"):
			flush()
			entry = append(entry, line)
		case strings.HasPrefix(line, "    \t") && len(entry) > 0:
			entry = append(entry, line)
		}
	}
	flush()
	if len(lines) == 0 {
		t.Fatalf("%s -h listed no flags:\n%s", bin, out)
	}
	return lines
}

// TestFlagSurface pins the name, type and default of every flag the three
// agent CLIs accept, so refactoring their shared wiring can neither add nor
// drop an option unnoticed. Regenerate with -update-flags after a deliberate
// change to the surface.
func TestFlagSurface(t *testing.T) {
	var got []string
	for _, bin := range []string{"predator", "predreplay", "predbench"} {
		got = append(got, flagSurface(t, bin)...)
	}
	text := strings.Join(got, "\n") + "\n"
	golden := filepath.Join("testdata", "flags.golden")
	if *updateFlags {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, []byte(text), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatal(err)
	}
	if text != string(want) {
		t.Errorf("flag surface changed; got:\n%s\nwant:\n%s", text, want)
	}
}

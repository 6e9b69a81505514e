package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"

	"munin/internal/apps"
)

// runArgs runs the command with args and returns its standard output.
func runArgs(t *testing.T, args ...string) (string, error) {
	t.Helper()
	var out bytes.Buffer
	err := run(args, &out)
	return out.String(), err
}

func TestListNamesEveryApp(t *testing.T) {
	out, err := runArgs(t, "-list")
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, e := range evalApps {
		names = append(names, e.name)
	}
	for _, d := range apps.Demos() {
		names = append(names, d.Name)
	}
	for _, name := range names {
		if !regexp.MustCompile(`(?m)^` + regexp.QuoteMeta(name) + `\s`).MatchString(out) {
			t.Errorf("-list does not name %q:\n%s", name, out)
		}
	}
}

func TestUnknownAppFails(t *testing.T) {
	if _, err := runArgs(t, "-app", "no-such-app"); err == nil {
		t.Fatal("an unknown -app ran without an error")
	}
}

func TestChromeExport(t *testing.T) {
	path := filepath.Join(t.TempDir(), "trace.json")
	if _, err := runArgs(t, "-app", "pipeline", "-procs", "4", "-chrome", path); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []json.RawMessage `json:"traceEvents"`
	}
	if err := json.Unmarshal(data, &doc); err != nil {
		t.Fatalf("export is not JSON: %v", err)
	}
	if len(doc.TraceEvents) == 0 {
		t.Error("export holds no traceEvents")
	}
}

// TestExactAppliesToEveryApp: -exact selects home-directed copyset
// determination, whose copyset-lookup messages replace the broadcast
// query on the lock-heavy ring's write-shared release.
func TestExactAppliesToEveryApp(t *testing.T) {
	out, err := runArgs(t, "-app", "lockheavy", "-procs", "4", "-exact")
	if err != nil {
		t.Fatal(err)
	}
	m := regexp.MustCompile(`(?m)^\s+copyset-lookup\s+(\d+)`).FindStringSubmatch(out)
	if m == nil || m[1] == "0" {
		t.Errorf("no copyset-lookup traffic under -exact:\n%s", out)
	}
	if !strings.Contains(out, "MATCH") {
		t.Errorf("result not checked against the reference:\n%s", out)
	}
}

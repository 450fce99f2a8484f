package main

import (
	"bytes"
	"fmt"
	"strings"
	"testing"
)

func TestRateOutsidePercentIsUsageError(t *testing.T) {
	for _, rate := range []string{"-1", "101", "150"} {
		var out, errOut bytes.Buffer
		code := run([]string{"-instrument", "-rate", rate}, strings.NewReader(""), &out, &errOut)
		if code != 2 || !strings.Contains(errOut.String(), "-rate "+rate+" is outside 0-100") {
			t.Errorf("-rate %s: exit %d, stderr %q; want 2 and the range", rate, code, errOut.String())
		}
		if out.Len() != 0 {
			t.Errorf("-rate %s: the shell started: %q", rate, out.String())
		}
	}
	for _, rate := range []string{"0", "100"} {
		var out, errOut bytes.Buffer
		in := strings.NewReader("CREATE TABLE t (id INT PRIMARY KEY)\nINSERT INTO t VALUES (1)\n\\points\n\\q\n")
		if code := run([]string{"-instrument", "-rate", rate}, in, &out, &errOut); code != 0 {
			t.Fatalf("-rate %s: exit %d, stderr %q", rate, code, errOut.String())
		}
		if !strings.Contains(out.String(), "training points") {
			t.Errorf("-rate %s: \\points printed nothing: %q", rate, out.String())
		}
	}
}

func TestUnknownProfileIsUsageError(t *testing.T) {
	for _, profile := range []string{"smal", "Large", ""} {
		var out, errOut bytes.Buffer
		code := run([]string{"-profile", profile}, strings.NewReader(""), &out, &errOut)
		if code != 2 || !strings.Contains(errOut.String(), fmt.Sprintf("-profile %q is not large or small", profile)) ||
			!strings.Contains(errOut.String(), "Usage of npdb") {
			t.Errorf("-profile %q: exit %d, stderr %q; want 2, the choices and the usage", profile, code, errOut.String())
		}
		if out.Len() != 0 {
			t.Errorf("-profile %q: the shell started: %q", profile, out.String())
		}
	}
	for _, profile := range []string{"large", "small"} {
		var out, errOut bytes.Buffer
		if code := run([]string{"-profile", profile}, strings.NewReader("\\q\n"), &out, &errOut); code != 0 {
			t.Fatalf("-profile %s: exit %d, stderr %q", profile, code, errOut.String())
		}
		if !strings.Contains(out.String(), "simulated "+profile) {
			t.Errorf("-profile %s: banner %q does not name the profile", profile, out.String())
		}
	}
}

package main

import (
	"strings"
	"testing"

	"cisp/internal/experiments"
)

func TestSelectFigs(t *testing.T) {
	all := []experiments.Spec{{Name: "2"}, {Name: "te"}, {Name: "avail"}, {Name: "users"}}
	names := func(specs []experiments.Spec) string {
		var out []string
		for _, s := range specs {
			out = append(out, s.Name)
		}
		return strings.Join(out, ",")
	}

	got, err := selectFigs(all, "users, te")
	if err != nil || names(got) != "te,users" {
		t.Fatalf("valid list: got %q, %v; want te,users in table order", names(got), err)
	}
	if got, err := selectFigs(all, "all"); err != nil || names(got) != "2,te,avail,users" {
		t.Fatalf("all: got %q, %v", names(got), err)
	}
	for _, list := range []string{"bogus", "te,bogus", "te,"} {
		_, err := selectFigs(all, list)
		if err == nil {
			t.Fatalf("%q: no error", list)
		}
		bad := strings.TrimPrefix(list, "te,")
		if !strings.Contains(err.Error(), `"`+bad+`"`) || !strings.Contains(err.Error(), "2,te,avail,users") {
			t.Fatalf("%q: error %q must name %q and list every figure", list, err, bad)
		}
	}
}

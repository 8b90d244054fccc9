package report

import (
	"strings"
	"testing"

	"rustprobe/internal/study"
)

func TestTable1Render(t *testing.T) {
	out := Table1(study.Build())
	for _, want := range []string{
		"Servo", "14574", "38096", "271K",
		"Redox", "Total bugs: 170", "(22 from the two CVE databases)",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("Table 1 missing %q:\n%s", want, out)
		}
	}
}

func TestTable2Render(t *testing.T) {
	out := Table2(study.Build())
	// The signature cells with interior-unsafe sub-counts.
	for _, want := range []string{"17 (10)", "12 (4)", "11 (4)", "Total"} {
		if !strings.Contains(out, want) {
			t.Errorf("Table 2 missing %q:\n%s", want, out)
		}
	}
	// Row totals 1 / 23 / 31 / 15 and grand total 70.
	if !strings.Contains(out, "70") {
		t.Errorf("Table 2 missing grand total:\n%s", out)
	}
}

func TestTable3Render(t *testing.T) {
	out := Table3(study.Build())
	for _, want := range []string{"Mutex&Rwlock", "Condvar", "Ethereum", "59"} {
		if !strings.Contains(out, want) {
			t.Errorf("Table 3 missing %q:\n%s", want, out)
		}
	}
}

func TestTable4Render(t *testing.T) {
	out := Table4(study.Build())
	for _, want := range []string{"Global", "Pointer", "O. H.", "MSG"} {
		if !strings.Contains(out, want) {
			t.Errorf("Table 4 missing %q:\n%s", want, out)
		}
	}
}

func TestFigureRenders(t *testing.T) {
	f1 := Figure1()
	if !strings.Contains(f1, "1.39") || !strings.Contains(f1, "Stable since 2016-01") {
		t.Errorf("Figure 1 malformed:\n%s", f1)
	}
	f2 := Figure2(study.Build())
	if !strings.Contains(f2, "145 of 170") {
		t.Errorf("Figure 2 headline missing:\n%s", f2)
	}
}

func TestSectionRenders(t *testing.T) {
	db := study.Build()
	checks := map[string][]string{
		UnsafeUsageSection():                    {"4990", "3665", "1302", "23", "1581"},
		RemovalSection():                        {"130", "108", "61%"},
		InteriorSection():                       {"250", "58%", "19"},
		MemFixSection(db):                       {"30", "22"},
		BlkFixSection(db):                       {"51 / 59", "21"},
		NBlkFixSection(db):                      {"20", "10"},
		DetectorSection(4, 3, 6, 0, 5, 0, 6, 0): {"paper", "measured", "4", "6", "data races (6.2)", "5", "blocking bugs (6.1)"},
	}
	for out, wants := range checks {
		for _, w := range wants {
			if !strings.Contains(out, w) {
				t.Errorf("section missing %q:\n%s", w, out)
			}
		}
	}
}

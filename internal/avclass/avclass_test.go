package avclass

import (
	"testing"
)

func TestLabelZbotExample(t *testing.T) {
	// The paper's own example: three engines carry the Zbot family, one
	// is generic.
	l := NewLabeler()
	labels := map[string]string{
		"Symantec":  "Trojan.Zbot",
		"McAfee":    "Downloader-FYH!6C7411D1C043",
		"Kaspersky": "Trojan-Spy.Win32.Zbot.ruxa",
		"Microsoft": "PWS:Win32/Zbot",
	}
	got := l.Label(labels)
	if got.Family != "zbot" {
		t.Errorf("family = %q, want zbot (tokens: %v)", got.Family, got.Tokens)
	}
	if got.Support != 3 {
		t.Errorf("support = %d, want 3", got.Support)
	}
}

func TestLabelNoFamilyFromGenerics(t *testing.T) {
	l := NewLabeler()
	labels := map[string]string{
		"McAfee":    "Artemis!DEC3771868CB",
		"Kaspersky": "Trojan-Downloader.Win32.Agent.heqj",
		"Microsoft": "Trojan:Win32/Agent",
	}
	got := l.Label(labels)
	if got.HasFamily() {
		t.Errorf("expected no family from generic labels, got %q", got.Family)
	}
}

func TestLabelMinSupport(t *testing.T) {
	l := NewLabeler()
	// Only one engine names the family: below default support of 2.
	got := l.Label(map[string]string{"Symantec": "Trojan.Cryptolocker"})
	if got.HasFamily() {
		t.Errorf("single-engine family should not reach support, got %q", got.Family)
	}
	l1 := NewLabeler(WithMinSupport(1))
	got = l1.Label(map[string]string{"Symantec": "Trojan.Cryptolocker"})
	if got.Family != "cryptolocker" {
		t.Errorf("min support 1 should accept, got %q", got.Family)
	}
}

func TestLabelAliasResolution(t *testing.T) {
	l := NewLabeler()
	labels := map[string]string{
		"A": "Trojan.Zeus",
		"B": "PWS:Win32/Zbot",
	}
	got := l.Label(labels)
	if got.Family != "zbot" {
		t.Errorf("zeus should alias to zbot, got %q", got.Family)
	}
	if got.Support != 2 {
		t.Errorf("alias votes should merge: support = %d", got.Support)
	}
}

func TestLabelCustomAliasAndGenerics(t *testing.T) {
	l := NewLabeler(WithAliases(map[string]string{"Foobaz": "barqux"}))
	got := l.Label(map[string]string{
		"A": "Trojan.Foobaz.Noise",
		"B": "W32.Barqux",
	})
	if got.Family != "barqux" {
		t.Errorf("custom alias not applied, got %q (tokens %v)", got.Family, got.Tokens)
	}
}

func TestLabelEmptyInput(t *testing.T) {
	l := NewLabeler()
	if got := l.Label(nil); got.HasFamily() {
		t.Error("nil labels produced a family")
	}
	if got := l.Label(map[string]string{}); got.HasFamily() {
		t.Error("empty labels produced a family")
	}
}

func TestLabelDigitsAndShortTokensDropped(t *testing.T) {
	l := NewLabeler()
	got := l.Label(map[string]string{
		"A": "W32.Xy.12345",
		"B": "Trojan.Xy.99",
	})
	if got.HasFamily() {
		t.Errorf("short token survived: %q", got.Family)
	}
}

func TestLabelTrailingDigitsTrimmed(t *testing.T) {
	l := NewLabeler()
	got := l.Label(map[string]string{
		"A": "Adware.Firseria2014",
		"B": "PUP.Firseria",
	})
	if got.Family != "firseria" {
		t.Errorf("trailing digits should be trimmed, got %q (tokens %v)", got.Family, got.Tokens)
	}
}

func TestLabelPluralityVote(t *testing.T) {
	l := NewLabeler()
	got := l.Label(map[string]string{
		"A": "Trojan.Alphafam",
		"B": "W32.Alphafam",
		"C": "Trojan.Betafam",
		"D": "W32.Betafam",
		"E": "Backdoor.Alphafam",
	})
	if got.Family != "alphafam" {
		t.Errorf("plurality should pick alphafam, got %q", got.Family)
	}
	if got.Support != 3 {
		t.Errorf("support = %d, want 3", got.Support)
	}
}

func TestLabelTiesBreakDeterministically(t *testing.T) {
	l := NewLabeler()
	labels := map[string]string{
		"A": "Trojan.Zetafam",
		"B": "W32.Zetafam",
		"C": "Trojan.Alphafam",
		"D": "W32.Alphafam",
	}
	first := l.Label(labels).Family
	for i := 0; i < 20; i++ {
		if got := l.Label(labels).Family; got != first {
			t.Fatalf("tie broken non-deterministically: %q vs %q", got, first)
		}
	}
	if first != "alphafam" {
		t.Errorf("tie should break to lexicographically-first token, got %q", first)
	}
}

func TestTokenCountedOncePerEngine(t *testing.T) {
	l := NewLabeler()
	// One engine repeating the token must not fake support of 2.
	got := l.Label(map[string]string{
		"A": "Gammafam.Gammafam.Gammafam",
	})
	if got.HasFamily() {
		t.Errorf("single engine reached support via repetition: %q", got.Family)
	}
}

func TestNotAVirusKasperskyStyle(t *testing.T) {
	l := NewLabeler()
	got := l.Label(map[string]string{
		"Kaspersky": "not-a-virus:AdWare.Win32.Installcore.ab",
		"ESET":      "Adware.Installcore.31",
	})
	if got.Family != "installcore" {
		t.Errorf("family = %q, want installcore (tokens %v)", got.Family, got.Tokens)
	}
}

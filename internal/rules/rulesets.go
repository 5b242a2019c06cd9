package rules

import "fmt"

// Fragment identifies one of the rulesets of Table 5.
type Fragment int

// The rule fragments Inferray supports (§1, §6 "Rulesets"). RhoDF is the
// minimal ρdf subset; RDFSDefault is the pragmatic RDFS used by working
// systems (two-way-join rules only); RDFSFull adds the single-antecedent
// rules that "satisfy the logician" (RDFS 4/6/8/10/12/13); RDFSPlus is
// the Allemang–Hendler fragment with the owl: constructs; RDFSPlusFull
// additionally enables the SCM-CLS/DP/OP housekeeping rules.
const (
	RhoDF Fragment = iota
	RDFSDefault
	RDFSFull
	RDFSPlus
	RDFSPlusFull
)

// String returns the fragment's conventional name.
func (f Fragment) String() string {
	switch f {
	case RhoDF:
		return "rhodf"
	case RDFSDefault:
		return "rdfs-default"
	case RDFSFull:
		return "rdfs-full"
	case RDFSPlus:
		return "rdfs-plus"
	case RDFSPlusFull:
		return "rdfs-plus-full"
	}
	return "unknown"
}

// ParseFragment resolves a fragment by the name String prints; no
// other spelling is accepted.
func ParseFragment(name string) (Fragment, error) {
	for f := RhoDF; f <= RDFSPlusFull; f++ {
		if f.String() == name {
			return f, nil
		}
	}
	return 0, fmt.Errorf("rules: unknown fragment %q", name)
}

// UsesSameAs reports whether the fragment includes the owl:sameAs
// machinery (equality closure, EQ-* rules).
func (f Fragment) UsesSameAs() bool { return f == RDFSPlus || f == RDFSPlusFull }

// Rules returns the rule list for a fragment. The θ-class rules
// (SCM-SCO, SCM-SPO, EQ-SYM, EQ-TRANS, PRP-TRP) are not in it: the
// reasoner's θ step closes those tables after every merge.
func Rules(f Fragment) []Rule {
	switch f {
	case RhoDF:
		return []Rule{
			ruleCAXSCO(),
			rulePRPDOM(),
			rulePRPRNG(),
			rulePRPSPO1(),
			ruleSCMDOM2(),
			ruleSCMRNG2(),
		}
	case RDFSDefault:
		return []Rule{
			ruleCAXSCO(),
			rulePRPDOM(),
			rulePRPRNG(),
			rulePRPSPO1(),
			ruleSCMDOM1(),
			ruleSCMDOM2(),
			ruleSCMRNG1(),
			ruleSCMRNG2(),
		}
	case RDFSFull:
		return append(Rules(RDFSDefault),
			ruleRDFS4(),
			ruleRDFS6(),
			ruleRDFS8(),
			ruleRDFS10(),
			ruleRDFS12(),
			ruleRDFS13(),
		)
	case RDFSPlus:
		return []Rule{
			ruleCAXEQC1(),
			ruleCAXEQC2(),
			ruleCAXSCO(),
			ruleSameAs(),
			rulePRPDOM(),
			rulePRPEQP1(),
			rulePRPEQP2(),
			rulePRPFP(),
			rulePRPIFP(),
			rulePRPINV1(),
			rulePRPINV2(),
			rulePRPRNG(),
			rulePRPSPO1(),
			rulePRPSYMP(),
			ruleSCMDOM1(),
			ruleSCMDOM2(),
			ruleSCMEQC1(),
			ruleSCMEQC2(),
			ruleSCMEQP1(),
			ruleSCMEQP2(),
			ruleSCMRNG1(),
			ruleSCMRNG2(),
		}
	case RDFSPlusFull:
		return append(Rules(RDFSPlus),
			ruleSCMCLS(),
			ruleSCMDP(),
			ruleSCMOP(),
		)
	}
	return nil
}

// Package baselines groups the prior learned query optimizers the paper
// compares against in Figure 14 — Neo (subpackage neo) and DQ (subpackage
// dq) — plus the §7 future-work variant that uses Bao's value model as the
// cost function inside a traditional dynamic program (subpackage
// learnedcost). All three run this package's one learning Loop and share
// the engine's PlanSpace, so their plans run on exactly the same executor
// and clock as Bao's, which is what makes the action-space-size
// comparison mechanical rather than rhetorical.
package baselines

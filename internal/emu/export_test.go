package emu

// ParityPrograms exposes the tier-parity program set to the external
// test package, which also needs the malware corpus (malware imports
// emu, so those tests cannot live in package emu).
var ParityPrograms = parityPrograms

package core

// The constant prompt texts, for the external prompt-layout test's
// reference builder.
var (
	SystemPrompt = systemPrompt
	FewShot      = fewShot
	Instructions = map[string]string{
		"identifier": instrIdent,
		"type":       instrType,
		"dependency": instrDep,
		"repair":     instrRepair,
	}
)

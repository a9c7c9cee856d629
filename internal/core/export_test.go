package core

// ForceSplit makes RunPairCtx split the views at round, even where they
// agree, until the returned function restores splitting only where they
// differ or one stops.
func ForceSplit(round int) (restore func()) {
	old := forcedSplit
	forcedSplit = round
	return func() { forcedSplit = old }
}

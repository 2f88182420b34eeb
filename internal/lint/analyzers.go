package lint

// All returns the repolint analyzer suite in reporting order.
func All() []*Analyzer {
	return []*Analyzer{Lockio, Mapiter, Obscapture, Pkgdoc, Wallclock}
}

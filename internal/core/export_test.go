package core

// AprioriTop2 exposes the Apriori kernel's runner-up score — the rival
// bound behind Maintained's certificates — to the external tests.
func AprioriTop2(d *Discoverer, c Constraint, workers int) (Preview, float64, error) {
	return d.aprioriTop2(c, workers)
}

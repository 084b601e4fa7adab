package lint

import (
	"fmt"

	"locwatch/internal/lint/analysis"
)

// PrivTaint guards what flows *out* of the pipeline: raw coordinates.
// The paper's whole attack works because apps casually emit location
// fixes through innocuous channels (logs, error strings, JSON blobs);
// this analyzer makes that a compile-time finding for locwatch itself.
//
// The heavy lifting happens in internal/lint/summary's location-taint
// lattice, computed bottom-up over the whole-program call graph:
// per function, which parameters and results carry raw location data
// (geo.LatLon, geo.BoundingBox, or any struct/slice/map transitively
// holding one — trace.Point, poi.StayPoint, android fixes) and which
// escaping sinks they reach (fmt/log output, fmt.Errorf/errors.New,
// json encoding, writer and file writes). privtaint reports the flows
// whose taint *originates* in the reporting function — a location
// literal, package-scope location state, or a tainted callee result —
// at the local site where the value enters the sink-reaching flow,
// with the full witness path quoted so a cross-package leak through
// three helpers is still explainable. Parameter-fed flows are charged
// to the caller that supplied the coordinate, not to the helper.
//
// Sanitizers end a flow: values routed through internal/privlog
// (scrubbed formatting, categorized errors), internal/anonymize
// (cloaked releases), or geoidx.RegionID (the paper's own region
// quantization) are clean. Derived scalars (distances, areas, error
// metrics) are also clean — numeric arithmetic drops taint, so figure
// and table output never flags. Requires a whole-program Pass.Program;
// without one the analyzer is a no-op.
var PrivTaint = &analysis.Analyzer{
	Name: "privtaint",
	Doc: "flags raw location data (coordinates, fixes, stay points) flowing into logs, errors, " +
		"JSON or writer sinks without passing a privlog/anonymize scrub boundary",
	Run: runPrivTaint,
}

func runPrivTaint(pass *analysis.Pass) error {
	prog := program(pass)
	if prog == nil {
		return nil // no whole-program view: nothing sound to report
	}
	for _, n := range prog.Graph.PackageNodes(pass.Pkg) {
		f := prog.Sums.OfNode(n)
		if f == nil {
			continue
		}
		for _, flow := range f.Loc.Findings {
			related := make([]analysis.RelatedPos, 0, len(flow.Via))
			for _, hop := range flow.Via {
				related = append(related, analysis.RelatedPos{Pos: hop.Pos, Message: "via " + hop.Name})
			}
			pass.Report(analysis.Diagnostic{
				Pos: flow.Pos,
				Message: fmt.Sprintf(
					"raw location data reaches %s (flow: %s); scrub with internal/privlog, release through internal/anonymize, or quantize with geoidx.RegionID",
					flow.Sink, flow.PathString(n.Name())),
				Related: related,
			})
		}
	}
	return nil
}

package teuchos

import (
	"strings"
	"testing"
)

// xmlString serializes p with WriteXML.
func xmlString(t *testing.T, p *ParameterList) string {
	t.Helper()
	var b strings.Builder
	if err := p.WriteXML(&b); err != nil {
		t.Fatal(err)
	}
	return b.String()
}

// parseXML reads a ParameterList document from a string with ReadXML.
func parseXML(s string) (*ParameterList, error) { return ReadXML(strings.NewReader(s)) }

func TestXMLRoundTrip(t *testing.T) {
	p := NewParameterList("solver")
	p.Set("tolerance", 1e-8).Set("max iterations", 500).Set("method", "cg").Set("verbose", true)
	p.Sublist("smoother").Set("sweeps", 3).Set("omega", 1.25)
	p.Sublist("smoother").Sublist("coarse").Set("type", "lu")

	xmlStr := xmlString(t, p)
	for _, want := range []string{
		`<ParameterList name="solver">`,
		`name="tolerance" type="double" value="1e-08"`,
		`name="max iterations" type="int" value="500"`,
		`name="method" type="string" value="cg"`,
		`name="verbose" type="bool" value="true"`,
		`<ParameterList name="smoother">`,
		`<ParameterList name="coarse">`,
	} {
		if !strings.Contains(xmlStr, want) {
			t.Fatalf("XML missing %q:\n%s", want, xmlStr)
		}
	}

	q, err := parseXML(xmlStr)
	if err != nil {
		t.Fatal(err)
	}
	if q.Name() != "solver" {
		t.Fatalf("name %q", q.Name())
	}
	if q.GetFloat("tolerance", 0) != 1e-8 || q.GetInt("max iterations", 0) != 500 {
		t.Fatal("numeric round trip")
	}
	if v, _ := q.Get("verbose"); q.GetString("method", "") != "cg" || v != true {
		t.Fatal("string/bool round trip")
	}
	if q.Sublist("smoother").GetInt("sweeps", 0) != 3 {
		t.Fatal("sublist round trip")
	}
	if q.Sublist("smoother").Sublist("coarse").GetString("type", "") != "lu" {
		t.Fatal("nested sublist round trip")
	}
}

func TestXMLTrilinosSchemaAccepted(t *testing.T) {
	// A hand-written document in the upstream schema.
	doc := `
<ParameterList name="ML list">
  <Parameter name="max levels" type="int" value="10"/>
  <Parameter name="aggregation: threshold" type="double" value="0.02"/>
  <ParameterList name="smoother: params">
    <Parameter name="relaxation: type" type="string" value="Gauss-Seidel"/>
  </ParameterList>
</ParameterList>`
	p, err := parseXML(doc)
	if err != nil {
		t.Fatal(err)
	}
	if p.GetInt("max levels", 0) != 10 {
		t.Fatal("max levels")
	}
	if p.GetFloat("aggregation: threshold", 0) != 0.02 {
		t.Fatal("threshold")
	}
	if p.Sublist("smoother: params").GetString("relaxation: type", "") != "Gauss-Seidel" {
		t.Fatal("smoother type")
	}
}

func TestXMLErrors(t *testing.T) {
	for name, doc := range map[string]string{
		"not-xml":  "nope",
		"bad-int":  `<ParameterList name="x"><Parameter name="n" type="int" value="abc"/></ParameterList>`,
		"bad-dbl":  `<ParameterList name="x"><Parameter name="n" type="double" value="abc"/></ParameterList>`,
		"bad-bool": `<ParameterList name="x"><Parameter name="n" type="bool" value="abc"/></ParameterList>`,
		"bad-type": `<ParameterList name="x"><Parameter name="n" type="matrix" value="1"/></ParameterList>`,
	} {
		if _, err := parseXML(doc); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
}

func TestXMLInt64(t *testing.T) {
	p := NewParameterList("l")
	p.Set("big", int64(1<<40))
	q, err := parseXML(xmlString(t, p))
	if err != nil {
		t.Fatal(err)
	}
	if q.GetInt("big", 0) != 1<<40 {
		t.Fatalf("int64 round trip: %d", q.GetInt("big", 0))
	}
}

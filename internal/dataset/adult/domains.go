// Package adult provides a deterministic synthetic stand-in for the UCI
// Adult ("Census Income") dataset projection used in the paper's
// experiments: Age, MaritalStatus, Race, Sex and the sensitive attribute
// Occupation (14 values), 45,222 tuples after removing missing values.
//
// The real file cannot be fetched in an offline build, so Generate samples
// records whose attribute domains match the real dataset exactly and whose
// marginal and conditional frequencies approximate the published ones (see
// "Deviations from the paper" in docs/PAPER-MAP.md). Generation is fully
// deterministic for a given Config.
package adult

import (
	"ckprivacy/internal/table"
)

// Attribute names, matching the paper's projection of the Adult dataset.
const (
	AttrAge        = "Age"
	AttrMarital    = "MaritalStatus"
	AttrRace       = "Race"
	AttrSex        = "Sex"
	AttrOccupation = "Occupation"
)

// DefaultN is the tuple count the paper reports after cleaning.
const DefaultN = 45222

// MinAge and MaxAge bound the Age attribute, as in the real dataset.
const (
	MinAge = 17
	MaxAge = 90
)

// MaritalStatuses are the seven marital-status values of the Adult dataset.
var MaritalStatuses = []string{
	"Married-civ-spouse",
	"Never-married",
	"Divorced",
	"Separated",
	"Widowed",
	"Married-spouse-absent",
	"Married-AF-spouse",
}

// Races are the five race values of the Adult dataset.
var Races = []string{
	"White",
	"Black",
	"Asian-Pac-Islander",
	"Amer-Indian-Eskimo",
	"Other",
}

// Sexes are the two sex values of the Adult dataset.
var Sexes = []string{"Male", "Female"}

// Occupations are the fourteen occupation values of the Adult dataset; the
// paper uses Occupation as the sensitive attribute.
var Occupations = []string{
	"Prof-specialty",
	"Craft-repair",
	"Exec-managerial",
	"Adm-clerical",
	"Sales",
	"Other-service",
	"Machine-op-inspct",
	"Transport-moving",
	"Handlers-cleaners",
	"Farming-fishing",
	"Tech-support",
	"Protective-serv",
	"Priv-house-serv",
	"Armed-Forces",
}

// Schema returns the five-attribute schema with Occupation sensitive.
func Schema() *table.Schema {
	s, err := table.NewSchema([]table.Attribute{
		{Name: AttrAge, Kind: table.Numeric, Min: MinAge, Max: MaxAge},
		{Name: AttrMarital, Kind: table.Categorical, Domain: MaritalStatuses},
		{Name: AttrRace, Kind: table.Categorical, Domain: Races},
		{Name: AttrSex, Kind: table.Categorical, Domain: Sexes},
		{Name: AttrOccupation, Kind: table.Categorical, Domain: Occupations},
	}, AttrOccupation)
	if err != nil {
		// The schema is a compile-time constant; failure is a programming
		// error, not a runtime condition.
		panic(err)
	}
	return s
}

// Broken networks for failure-injection and differential tests: copies
// of a correct construction with one reaction dropped or with one extra
// output molecule produced. A verifier that cannot reject them proves
// nothing with its green runs.
#ifndef CRNKIT_TESTS_BROKEN_NETWORKS_H_
#define CRNKIT_TESTS_BROKEN_NETWORKS_H_

#include <cstddef>
#include <string>
#include <utility>
#include <vector>

#include "crn/network.h"

namespace crnkit::test {

/// Rebuilds `crn` without reaction `drop`.
inline crn::Crn without_reaction(const crn::Crn& crn, std::size_t drop) {
  crn::Crn out(crn.name() + "-rxn" + std::to_string(drop));
  for (const std::string& s : crn.species_table().names()) out.add_species(s);
  for (std::size_t j = 0; j < crn.reactions().size(); ++j) {
    if (j != drop) out.add_reaction(crn.reactions()[j]);
  }
  std::vector<std::string> inputs;
  for (const crn::SpeciesId id : crn.inputs()) {
    inputs.push_back(crn.species_name(id));
  }
  out.set_input_species(inputs);
  out.set_output_species(crn.species_name(crn.output_or_throw()));
  if (crn.leader()) out.set_leader_species(crn.species_name(*crn.leader()));
  return out;
}

/// Rebuilds `crn` with one extra Y in the products of reaction `bump`.
inline crn::Crn with_extra_output(const crn::Crn& crn, std::size_t bump) {
  crn::Crn out(crn.name() + "+extraY");
  for (const std::string& s : crn.species_table().names()) out.add_species(s);
  const crn::SpeciesId y = crn.output_or_throw();
  for (std::size_t j = 0; j < crn.reactions().size(); ++j) {
    if (j != bump) {
      out.add_reaction(crn.reactions()[j]);
      continue;
    }
    std::vector<crn::Term> reactants(crn.reactions()[j].reactants());
    std::vector<crn::Term> products(crn.reactions()[j].products());
    products.push_back({y, 1});
    out.add_reaction(crn::Reaction(std::move(reactants),
                                   std::move(products)));
  }
  std::vector<std::string> inputs;
  for (const crn::SpeciesId id : crn.inputs()) {
    inputs.push_back(crn.species_name(id));
  }
  out.set_input_species(inputs);
  out.set_output_species(crn.species_name(y));
  if (crn.leader()) out.set_leader_species(crn.species_name(*crn.leader()));
  return out;
}

}  // namespace crnkit::test

#endif  // CRNKIT_TESTS_BROKEN_NETWORKS_H_

// The HHH layer's older umbrella include: the result types plus the one
// HHH class, LatticeHhh, with its alias names (hhh/lattice_hhh.hpp).
#pragma once

#include "hhh/hhh_set.hpp"
#include "hhh/lattice_hhh.hpp"

package mpi

// RaceEnabled lets the external test package skip allocation gates under
// the race detector (see raceEnabled).
const RaceEnabled = raceEnabled

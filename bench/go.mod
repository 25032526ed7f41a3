module mpr/bench

go 1.22

require mpr v0.0.0

replace mpr => ../
